package core

import "unsafe"

// Prefetch asks the CPU to start loading every cache line of the n
// bytes at p into L1 (PREFETCHT0) and returns without waiting for any
// of them. A prefetch never faults and loads nothing the program reads,
// so calling it cannot change a computed value; it only moves a miss off
// the path of the code that reads those bytes later. n == 0 is a no-op,
// whatever p is.
//
//go:noescape
func Prefetch(p unsafe.Pointer, n uintptr)
