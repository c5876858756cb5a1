package sim

import (
	"unsafe"

	"github.com/gossipkit/slicing/internal/view"
)

// entryBytes is the size of one view entry; prefetch_amd64.s reads it
// from go_asm.h to find the end of a window.
const entryBytes = unsafe.Sizeof(view.Entry{})

// prefetchWindow asks the CPU to start loading every cache line of win
// into L1 (PREFETCHT0) and returns without waiting for any of them. A
// prefetch never faults and loads nothing the program reads, so calling
// it cannot change a computed value; it only moves a miss off the path
// of the code that reads win later. A nil or empty window is a no-op.
//
//go:noescape
func prefetchWindow(win []view.Entry)
