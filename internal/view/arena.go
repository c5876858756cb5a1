package view

import (
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
)

// Arena is flat backing storage for a population of equal-capacity
// views: one contiguous Entry array indexed by slot*stride and the
// packed ID mirror in a second contiguous array. Laying every view out
// back to back turns the simulator's per-cycle scans — the compute and
// commit halves of a gossip round both walk every view in slot order —
// into sequential streams instead of a pointer chase through per-node
// heap allocations.
//
// The ID mirror is padded: each slot's ID block spans pad4(stride)
// words, and the words past a view's live length are held at zero.
// core.IDs start at 1, so zero is a free sentinel — the duplicate scan
// of a gossip merge (findID) can then compare four words per step with
// no tail loop.
//
// The arena does not own View headers; callers bind a *View onto a slot
// with View.Rebind(a.Block(slot)). Blocks are zero-length, full-capacity
// slices, so a bound view can never grow past its stride: in-place
// mutations (Add, Remove, Clear, UpdateR, AgeAll) stay inside the block,
// and bulk merges go through the scratch (MergeUsing/MergeFreshUsing) or
// fused (MergeCompact/MergeReply) variants.
type Arena struct {
	stride   int
	idStride int
	entries  []Entry
	ids      []core.ID
}

// pad4 rounds n up to a multiple of four — the group width of findID's
// unrolled duplicate scan.
func pad4(n int) int { return (n + 3) &^ 3 }

// NewArena returns an arena with capacity for slots views of the given
// stride (the shared view capacity).
func NewArena(stride, slots int) *Arena {
	if stride < 1 {
		panic(ErrCapacity)
	}
	idStride := pad4(stride)
	return &Arena{
		stride:   stride,
		idStride: idStride,
		entries:  make([]Entry, slots*stride),
		ids:      make([]core.ID, slots*idStride),
	}
}

// Stride returns the per-slot capacity.
func (a *Arena) Stride() int { return a.stride }

// Slots returns the number of slots currently backed.
func (a *Arena) Slots() int { return len(a.entries) / a.stride }

// Block returns slot's backing storage as zero-length, full-capacity
// slices — appends stay inside the slot, and exceeding the stride
// panics instead of silently corrupting the neighbor slot. The ID block
// carries the padded stride (see Arena). The third result is always
// nil: the arena once held an attribute-order permutation column there,
// and benchmark/kernels.go is pinned to the three-slice shape until a
// benchmark-maintenance PR removes the parameter from Block, NewBound
// and Rebind together.
func (a *Arena) Block(slot int) ([]Entry, []core.ID, []int16) {
	lo, hi := slot*a.stride, (slot+1)*a.stride
	ilo, ihi := slot*a.idStride, (slot+1)*a.idStride
	return a.entries[lo:lo:hi], a.ids[ilo:ilo:ihi], nil
}

// EnsureSlots grows the arena to back at least n slots, doubling to
// amortize joins. It reports whether the backing arrays moved: after a
// move every bound View still points into the old arrays, and the
// caller must rebind each one onto its Block again.
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
	ids := make([]core.ID, slots*a.idStride)
	copy(ids, a.ids)
	a.entries, a.ids = entries, ids
	return true
}

// Bytes returns the arena's backing storage size in bytes — the
// deterministic part of the engine's memory budget (see sim.MemReport).
func (a *Arena) Bytes() int64 {
	return int64(len(a.entries))*int64(unsafe.Sizeof(Entry{})) +
		int64(len(a.ids))*int64(unsafe.Sizeof(core.ID(0)))
}
