package core

import (
	"slices"
	"testing"
	"unsafe"
)

// TestPrefetchWindow drives the prefetch primitive over the window
// shapes its callers hand it — the sim's view windows and the live
// scheduler's node footprints: it must change nothing and allocate
// nothing. On the fallback build it is a no-op and passes trivially.
func TestPrefetchWindow(t *testing.T) {
	backing := make([]uint64, 64)
	for i := range backing {
		backing[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	want := slices.Clone(backing)
	base := unsafe.Pointer(&backing[0])
	size := uintptr(len(backing)) * 8

	// The first word that does not start on a 64-byte line.
	mid := -1
	for i := range backing {
		if uintptr(unsafe.Pointer(&backing[i]))%64 != 0 {
			mid = i
			break
		}
	}
	if mid < 0 {
		t.Fatal("no word of the backing array starts mid-line")
	}

	cases := []struct {
		name string
		p    unsafe.Pointer
		n    uintptr
	}{
		{"nil", nil, 0},
		{"empty", unsafe.Pointer(&backing[5]), 0},
		{"one", unsafe.Pointer(&backing[7]), 1},
		{"mid-line", unsafe.Pointer(&backing[mid]), 21 * 8},
		{"ends-backing", unsafe.Add(base, size-168), 168},
		{"whole", base, size},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, func() { Prefetch(c.p, c.n) }); allocs != 0 {
				t.Errorf("Prefetch allocated %v times per call", allocs)
			}
			if !slices.Equal(backing, want) {
				t.Fatal("Prefetch changed the window's contents")
			}
		})
	}
}
