package view

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

// Clear removes every entry, keeping the allocated storage: the first
// half of the Clear+Add oracle Reset is checked against.
func (v *View) Clear() { v.entries = v.entries[:0] }

// randomEntries draws n entries with distinct IDs from [1, maxID], ages
// from a small pool (so ties are common) and about one placeholder in
// six.
func randomEntries(rng *rand.Rand, n, maxID int) []Entry {
	out := make([]Entry, 0, n)
	for _, p := range rng.Perm(maxID)[:n] {
		e := Entry{ID: core.ID(p + 1), Attr: core.Attr(rng.Intn(100)), R: rng.Float64(), Age: uint32(rng.Intn(4))}
		if rng.Intn(6) == 0 {
			e.Age = AgeUnknown
		}
		out = append(out, e)
	}
	return out
}

// sameView reports whether two views hold the same entries in the same
// order.
func sameView(a, b *View) bool { return slices.Equal(a.entries, b.entries) }

// TestAgeAllOldestMatchesTwoStep pins the fused aging pass: AgeAllOldest
// returns the entry AgeAll followed by Oldest returns, and leaves the
// same entries behind — over age ties, AgeUnknown placeholders and the
// empty view.
func TestAgeAllOldestMatchesTwoStep(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 2000; trial++ {
		c := 1 + rng.Intn(24)
		fused, twoStep := MustNew(c), MustNew(c)
		for _, e := range randomEntries(rng, rng.Intn(c+1), 2*c+2) {
			fused.Add(e)
			twoStep.Add(e)
		}
		got, gotOK := fused.AgeAllOldest()
		twoStep.AgeAll()
		want, wantOK := twoStep.Oldest()
		if got != want || gotOK != wantOK {
			t.Fatalf("trial %d: AgeAllOldest = (%+v, %v), AgeAll+Oldest = (%+v, %v)", trial, got, gotOK, want, wantOK)
		}
		if !sameView(fused, twoStep) {
			t.Fatalf("trial %d: entries left behind diverge:\n fused    %v\n two-step %v", trial, fused, twoStep)
		}
	}
}

// TestResetMatchesClearAdd pins the bulk bootstrap: for a distinct
// sample that does not contain the owner, Reset leaves the view Clear
// followed by an Add loop leaves — entries and order — on a New view and
// on an arena-bound NewBound view whose block held a longer view before.
func TestResetMatchesClearAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 2000; trial++ {
		c := 1 + rng.Intn(24)
		const owner = core.ID(1)
		var reset, ref *View
		if trial%2 == 0 {
			reset, ref = MustNew(c), MustNew(c)
		} else {
			a := NewArena(c, 2)
			e0, i0, p0 := a.Block(0)
			e1, i1, p1 := a.Block(1)
			reset, ref = NewBound(c, e0, i0, p0), NewBound(c, e1, i1, p1)
		}
		for _, e := range randomEntries(rng, c, 3*c) {
			reset.Add(e)
			ref.Add(e)
		}
		sample := randomEntries(rng, rng.Intn(c+1), 3*c)
		sample = slices.DeleteFunc(sample, func(e Entry) bool { return e.ID == owner })
		reset.Reset(sample)
		ref.Clear()
		for _, e := range sample {
			ref.Add(e)
		}
		if !sameView(reset, ref) {
			t.Fatalf("trial %d (bound=%v): Reset diverges from Clear+Add:\n reset %v\n ref   %v", trial, trial%2 == 1, reset, ref)
		}
		if err := reset.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
