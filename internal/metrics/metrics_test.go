package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

// stateFrom builds node states from parallel attribute/coordinate
// slices; slice beliefs are derived from R through the partition.
func statesFrom(attrs []core.Attr, rs []float64, part core.Partition) []NodeState {
	states := make([]NodeState, len(attrs))
	for i := range attrs {
		states[i] = NodeState{
			Member:     core.Member{ID: core.ID(i + 1), Attr: attrs[i]},
			R:          rs[i],
			SliceIndex: part.Index(rs[i]),
		}
	}
	return states
}

func TestGDMZeroWhenPerfectlyOrdered(t *testing.T) {
	part := core.MustEqual(2)
	states := statesFrom(
		[]core.Attr{10, 20, 30, 40},
		[]float64{0.1, 0.3, 0.6, 0.9},
		part,
	)
	if got := GDM(states); got != 0 {
		t.Errorf("GDM = %v, want 0", got)
	}
}

func TestGDMFullyReversed(t *testing.T) {
	// n nodes in reverse order: GDM = (1/n)·Σ(n+1-2i)² — for n=4:
	// (9+1+1+9)/4 = 5.
	part := core.MustEqual(2)
	states := statesFrom(
		[]core.Attr{10, 20, 30, 40},
		[]float64{0.9, 0.6, 0.3, 0.1},
		part,
	)
	if got := GDM(states); got != 5 {
		t.Errorf("GDM = %v, want 5", got)
	}
}

func TestGDMSingleSwap(t *testing.T) {
	part := core.MustEqual(2)
	// Adjacent pair misplaced: both off by one → GDM = 2/3.
	states := statesFrom(
		[]core.Attr{10, 20, 30},
		[]float64{0.2, 0.9, 0.5},
		part,
	)
	if got := GDM(states); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("GDM = %v, want 2/3", got)
	}
}

func TestGDMEmpty(t *testing.T) {
	if got := GDM(nil); got != 0 {
		t.Errorf("GDM(nil) = %v, want 0", got)
	}
}

func TestSDMZeroWhenAllCorrect(t *testing.T) {
	part := core.MustEqual(2)
	states := statesFrom(
		[]core.Attr{10, 20, 30, 40},
		[]float64{0.2, 0.4, 0.6, 0.9},
		part,
	)
	if got := SDM(states, part); got != 0 {
		t.Errorf("SDM = %v, want 0", got)
	}
}

func TestSDMCountsIndexDistance(t *testing.T) {
	// Paper §4.4: a node in slice 1 believing slice 3 contributes 2.
	part := core.MustEqual(4)
	states := []NodeState{
		{Member: core.Member{ID: 1, Attr: 5}, R: 0.7, SliceIndex: 2},  // true slice 0 → distance 2
		{Member: core.Member{ID: 2, Attr: 10}, R: 0.3, SliceIndex: 1}, // true slice 1 → 0
		{Member: core.Member{ID: 3, Attr: 20}, R: 0.6, SliceIndex: 2}, // true slice 2 → 0
		{Member: core.Member{ID: 4, Attr: 30}, R: 0.1, SliceIndex: 0}, // true slice 3 → 3
	}
	if got := SDM(states, part); got != 5 {
		t.Errorf("SDM = %v, want 5", got)
	}
}

// The paper's key observation (Fig. 4(a)): perfectly ordered random
// values (GDM = 0) can still misassign slices (SDM > 0) when the random
// draw is uneven.
func TestOrderedButMisassigned(t *testing.T) {
	part := core.MustEqual(2)
	// Both random values land in (0,0.5]: sorted, yet both nodes claim
	// the bottom slice while one truly belongs to the top.
	states := statesFrom(
		[]core.Attr{10, 20},
		[]float64{0.1, 0.4},
		part,
	)
	if gdm := GDM(states); gdm != 0 {
		t.Fatalf("GDM = %v, want 0", gdm)
	}
	if sdm := SDM(states, part); sdm != 1 {
		t.Errorf("SDM = %v, want 1", sdm)
	}
}

func TestSDMTiesBrokenById(t *testing.T) {
	part := core.MustEqual(2)
	// Equal attributes: ranks follow identifiers (1 then 2).
	states := []NodeState{
		{Member: core.Member{ID: 1, Attr: 5}, R: 0.2, SliceIndex: 0},
		{Member: core.Member{ID: 2, Attr: 5}, R: 0.8, SliceIndex: 1},
	}
	if got := SDM(states, part); got != 0 {
		t.Errorf("SDM = %v, want 0 (ids order the tie correctly)", got)
	}
}

func TestMisassignedFraction(t *testing.T) {
	part := core.MustEqual(2)
	states := statesFrom(
		[]core.Attr{10, 20, 30, 40},
		[]float64{0.2, 0.4, 0.3, 0.9}, // node 3 wrongly claims bottom slice
		part,
	)
	if got := MisassignedFraction(states, part); got != 0.25 {
		t.Errorf("MisassignedFraction = %v, want 0.25", got)
	}
	if got := MisassignedFraction(nil, part); got != 0 {
		t.Errorf("MisassignedFraction(nil) = %v, want 0", got)
	}
}

// Property: on random populations, SDM is zero iff every node's believed
// slice equals its actual slice.
func TestSDMZeroIffAllAssigned(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	part := core.MustEqual(5)
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(50)
		states := make([]NodeState, n)
		for i := range states {
			states[i] = NodeState{
				Member:     core.Member{ID: core.ID(i + 1), Attr: core.Attr(rng.Float64())},
				R:          rng.Float64(),
				SliceIndex: rng.Intn(5),
			}
		}
		sdm := SDM(states, part)
		allCorrect := MisassignedFraction(states, part) == 0
		if (sdm == 0) != allCorrect {
			t.Fatalf("SDM = %v but allCorrect = %v", sdm, allCorrect)
		}
	}
}

// Property: SDMSortedRange over all of a believed sequence pre-sorted
// into attribute order equals the sort-based SDM over the same states in
// any order.
func TestSDMSortedMatchesSDM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		part := core.MustEqual(2 + rng.Intn(8))
		n := 1 + rng.Intn(60)
		states := make([]NodeState, n)
		for i := range states {
			states[i] = NodeState{
				Member:     core.Member{ID: core.ID(i + 1), Attr: core.Attr(rng.Intn(10))},
				R:          rng.Float64(),
				SliceIndex: rng.Intn(part.Len()),
			}
		}
		want := SDM(states, part)
		sorted := append([]NodeState(nil), states...)
		sort.SliceStable(sorted, func(x, y int) bool {
			return core.Less(sorted[x].Member, sorted[y].Member)
		})
		believed := make([]int32, n)
		for i, st := range sorted {
			believed[i] = int32(st.SliceIndex)
		}
		if got := SDMSortedRange(believed, part, 0, n); got != want {
			t.Fatalf("trial %d: SDMSortedRange = %v, SDM = %v", trial, got, want)
		}
	}
}

// Property: GDM is invariant under permuting the input order (it depends
// only on the population).
func TestGDMPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(30)
		states := make([]NodeState, n)
		for i := range states {
			states[i] = NodeState{
				Member: core.Member{ID: core.ID(i + 1), Attr: core.Attr(rng.NormFloat64())},
				R:      rng.Float64(),
			}
		}
		want := GDM(states)
		shuffled := append([]NodeState(nil), states...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := GDM(shuffled); math.Abs(got-want) > 1e-9 {
			t.Fatalf("GDM changed under permutation: %v vs %v", got, want)
		}
	}
}

// GDM decreases when a misplaced adjacent pair is fixed.
func TestGDMDecreasesOnFix(t *testing.T) {
	part := core.MustEqual(2)
	attrs := []core.Attr{1, 2, 3, 4, 5}
	bad := []float64{0.1, 0.5, 0.3, 0.7, 0.9} // 2nd and 3rd misplaced
	good := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if GDM(statesFrom(attrs, bad, part)) <= GDM(statesFrom(attrs, good, part)) {
		t.Error("fixing a misplaced pair did not decrease GDM")
	}
}

// Sanity check of the measures against a brute-force implementation on
// random instances.
func TestGDMBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		states := make([]NodeState, n)
		for i := range states {
			states[i] = NodeState{
				Member: core.Member{ID: core.ID(i + 1), Attr: core.Attr(rng.Intn(5))},
				R:      rng.Float64(),
			}
		}
		// Brute force: sort copies, find each node's position.
		byAttr := append([]NodeState(nil), states...)
		sort.SliceStable(byAttr, func(x, y int) bool { return core.Less(byAttr[x].Member, byAttr[y].Member) })
		byR := append([]NodeState(nil), states...)
		sort.SliceStable(byR, func(x, y int) bool {
			if byR[x].R != byR[y].R {
				return byR[x].R < byR[y].R
			}
			return byR[x].Member.ID < byR[y].Member.ID
		})
		pos := func(list []NodeState, id core.ID) int {
			for i, s := range list {
				if s.Member.ID == id {
					return i + 1
				}
			}
			return -1
		}
		want := 0.0
		for _, s := range states {
			d := float64(pos(byAttr, s.Member.ID) - pos(byR, s.Member.ID))
			want += d * d
		}
		want /= float64(n)
		if got := GDM(states); math.Abs(got-want) > 1e-9 {
			t.Fatalf("GDM = %v, brute force = %v", got, want)
		}
	}
}

// SDMSortedRange must tile exactly: summing in-order chunk partials of
// any fixed chunking reproduces the one-chunk measure (this is
// the contract the parallel engine's chunked reduction relies on).
func TestSDMSortedRangeTilesSDMSorted(t *testing.T) {
	part, err := core.Equal(7)
	if err != nil {
		t.Fatal(err)
	}
	believed := make([]int32, 1000)
	for i := range believed {
		believed[i] = int32((i * 13) % 7)
	}
	want := SDMSortedRange(believed, part, 0, len(believed))
	for _, chunk := range []int{1, 3, 64, 999, 1000, 5000} {
		sum := 0.0
		for lo := 0; lo < len(believed); lo += chunk {
			sum += SDMSortedRange(believed, part, lo, min(lo+chunk, len(believed)))
		}
		if sum != want {
			t.Errorf("chunk=%d: tiled sum %v != whole range %v", chunk, sum, want)
		}
	}
	if got := SDMSortedRange(nil, part, 0, 0); got != 0 {
		t.Errorf("empty range = %v, want 0", got)
	}
}

// GDMRange over per-slot ranks must reproduce the package GDM once
// normalized, rank conventions included.
func TestGDMRangeMatchesGDM(t *testing.T) {
	states := []NodeState{
		{Member: core.Member{ID: 1, Attr: 10}, R: 0.9, SliceIndex: 0},
		{Member: core.Member{ID: 2, Attr: 20}, R: 0.1, SliceIndex: 0},
		{Member: core.Member{ID: 3, Attr: 30}, R: 0.5, SliceIndex: 0},
		{Member: core.Member{ID: 4, Attr: 20}, R: 0.5, SliceIndex: 0},
	}
	// Ranks per the GDM definition: attribute order (attr, id) and
	// coordinate order (r, id), 1-based.
	alpha := []int32{1, 2, 4, 3}
	rho := []int32{4, 1, 2, 3}
	n := len(states)
	got := GDMRange(alpha, rho, 0, n) / float64(n)
	if want := GDM(states); got != want {
		t.Errorf("GDMRange-based measure %v != GDM %v", got, want)
	}
	split := (GDMRange(alpha, rho, 0, 2) + GDMRange(alpha, rho, 2, n)) / float64(n)
	if split != got {
		t.Errorf("split ranges %v != whole range %v", split, got)
	}
}
