package sim

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/view"
)

// TestPrefetchWindow drives the prefetch primitive over the window
// shapes the exchange round and the sampler hand it: it must change
// nothing and allocate nothing. On the fallback build it is a no-op and
// passes trivially.
func TestPrefetchWindow(t *testing.T) {
	backing := make([]view.Entry, 64)
	for i := range backing {
		backing[i] = view.Entry{ID: core.ID(i + 1), Age: uint32(i), Attr: core.Attr(i), R: float64(i) / 64}
	}
	want := slices.Clone(backing)

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
			if allocs := testing.AllocsPerRun(100, func() { prefetchWindow(c.win) }); allocs != 0 {
				t.Errorf("prefetchWindow allocated %v times per call", allocs)
			}
			if !slices.Equal(backing, want) {
				t.Fatal("prefetchWindow changed the window's contents")
			}
		})
	}
}
