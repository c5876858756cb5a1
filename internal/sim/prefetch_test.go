package sim

import (
	"testing"
	"unsafe"

	"github.com/gossipkit/slicing/internal/view"
)

// TestPrefetchWindow checks the byte range the engine's window wrapper
// hands core.Prefetch for the window shapes the exchange round and the
// sampler use: it starts at the window's first entry and ends just past
// its last, and an empty window is zero bytes. core's TestPrefetchWindow
// drives the primitive itself over such ranges.
func TestPrefetchWindow(t *testing.T) {
	backing := make([]view.Entry, 64)

	// The first entry that does not start on a 64-byte line.
	mid := -1
	for i := range backing {
		if uintptr(unsafe.Pointer(&backing[i]))%64 != 0 {
			mid = i
			break
		}
	}
	if mid < 0 {
		t.Fatal("no entry of the backing array starts mid-line")
	}
	tail := backing[len(backing)-21:]
	if cap(tail) != len(tail) {
		t.Fatalf("tail window has cap %d, want it to end its backing array (len %d)", cap(tail), len(tail))
	}

	cases := []struct {
		name string
		win  []view.Entry
	}{
		{"nil", nil},
		{"empty", backing[5:5]},
		{"one", backing[7:8]},
		{"mid-line", backing[mid : mid+21]},
		{"ends-backing", tail},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, n := windowBytes(c.win)
			if len(c.win) == 0 {
				if n != 0 {
					t.Errorf("empty window spans %d bytes, want 0", n)
				}
				return
			}
			first := unsafe.Pointer(&c.win[0])
			end := unsafe.Add(unsafe.Pointer(&c.win[len(c.win)-1]), unsafe.Sizeof(view.Entry{}))
			if p != first {
				t.Errorf("range starts at %p, want the first entry at %p", p, first)
			}
			if got := unsafe.Add(p, n); got != end {
				t.Errorf("range ends at %p, want just past the last entry at %p", got, end)
			}
		})
	}
}
