package view

import (
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
)

// Arena is flat backing storage for a population of equal-capacity
// views: one contiguous Entry array indexed by slot*stride. Laying every
// view out back to back turns the simulator's per-cycle scans — the
// compute and commit halves of a gossip round both walk every view in
// slot order — into sequential streams instead of a pointer chase
// through per-node heap allocations.
//
// The arena does not own View headers; callers bind a *View onto a slot
// with View.Rebind(a.Block(slot)). Blocks are zero-length, full-capacity
// slices, so a bound view can never grow past its stride: in-place
// mutations (Add, Remove, Clear, UpdateR, AgeAll) stay inside the block,
// and bulk merges go through the scratch (MergeUsing/MergeFreshUsing) or
// fused (MergeCompact/MergeReply) variants.
type Arena struct {
	stride  int
	entries []Entry
}

// NewArena returns an arena with capacity for slots views of the given
// stride (the shared view capacity).
func NewArena(stride, slots int) *Arena {
	if stride < 1 {
		panic(ErrCapacity)
	}
	return &Arena{stride: stride, entries: make([]Entry, slots*stride)}
}

// Slots returns the number of slots currently backed.
func (a *Arena) Slots() int { return len(a.entries) / a.stride }

// Block returns slot's backing storage as a zero-length, full-capacity
// slice — appends stay inside the slot, and exceeding the stride panics
// instead of silently corrupting the neighbor slot. The second and third
// results are always nil: the arena once held a packed ID mirror and an
// attribute-order permutation column there, and benchmark/kernels.go is
// pinned to the three-slice shape until a benchmark-maintenance change
// removes the parameters from Block, NewBound and Rebind together.
func (a *Arena) Block(slot int) ([]Entry, []core.ID, []int16) {
	lo, hi := slot*a.stride, (slot+1)*a.stride
	return a.entries[lo:lo:hi], nil, nil
}

// EnsureSlots grows the arena to back at least n slots, doubling to
// amortize joins. It reports whether the backing array moved: after a
// move every bound View still points into the old array, and the caller
// must rebind each one onto its Block again.
func (a *Arena) EnsureSlots(n int) bool {
	if n*a.stride <= len(a.entries) {
		return false
	}
	slots := 2 * a.Slots()
	if slots < n {
		slots = n
	}
	entries := make([]Entry, slots*a.stride)
	copy(entries, a.entries)
	a.entries = entries
	return true
}

// Bytes returns the arena's backing storage size in bytes — the
// deterministic part of the engine's memory budget (see sim.MemReport).
func (a *Arena) Bytes() int64 {
	return int64(len(a.entries)) * int64(unsafe.Sizeof(Entry{}))
}
