// Package metrics implements the two disorder measures the paper
// evaluates with, plus time-series recording and table output for the
// experiment harness.
//
//   - GDM (global disorder measure, §4.2): the mean squared distance
//     between each node's attribute rank α_i and its random-value rank
//     ρ_i. GDM = 0 iff the random values are perfectly ordered.
//   - SDM (slice disorder measure, §4.4): the summed distance between
//     the slice each node actually belongs to and the slice it believes
//     it belongs to. SDM = 0 iff every node knows its slice. The paper
//     shows GDM → 0 does not imply SDM → 0: that gap motivates the
//     ranking algorithm.
package metrics

import (
	"sort"

	"github.com/gossipkit/slicing/internal/core"
)

// NodeState is the per-node snapshot the measures are computed from.
type NodeState struct {
	// Member is the node's identity and attribute value.
	Member core.Member
	// R is the node's normalized-rank coordinate: random value under the
	// ordering protocols, rank estimate under ranking.
	R float64
	// SliceIndex is the slice the node currently believes it belongs to.
	SliceIndex int
}

// scratch is the shared sort scaffolding of the one-shot GDM and SDM
// measures: an index permutation ordered by attribute or by coordinate.
// (The simulator no longer routes per-cycle measurement through it — it
// keeps its own rank buffers and reduces via SDMSortedRange/GDMRange —
// so this exists only for the package-level reference measures.)
type scratch struct {
	idx        []int
	alpha, rho []int
	states     []NodeState
	byR        bool
}

// Len implements sort.Interface over the index permutation.
func (sc *scratch) Len() int { return len(sc.idx) }

// Swap implements sort.Interface.
func (sc *scratch) Swap(x, y int) { sc.idx[x], sc.idx[y] = sc.idx[y], sc.idx[x] }

// Less implements sort.Interface: the attribute-based total order, or —
// when ranking by coordinate — (R, ID) order.
func (sc *scratch) Less(x, y int) bool {
	sx, sy := sc.states[sc.idx[x]], sc.states[sc.idx[y]]
	if sc.byR {
		if sx.R != sy.R {
			return sx.R < sy.R
		}
		return sx.Member.ID < sy.Member.ID
	}
	return core.Less(sx.Member, sy.Member)
}

// sortIdx (re)fills the index permutation and stably sorts it in the
// requested order.
func (sc *scratch) sortIdx(states []NodeState, byR bool) {
	sc.idx = sc.idx[:0]
	for i := range states {
		sc.idx = append(sc.idx, i)
	}
	sc.states, sc.byR = states, byR
	sort.Stable(sc)
	sc.states = nil // do not retain the caller's slice between calls
}

// GDM computes the global disorder measure; see the package-level GDM.
func (sc *scratch) GDM(states []NodeState) float64 {
	n := len(states)
	if n == 0 {
		return 0
	}
	sc.alpha = growInts(sc.alpha, n) // fully overwritten below
	sc.rho = growInts(sc.rho, n)
	sc.sortIdx(states, false)
	for pos, i := range sc.idx {
		sc.alpha[i] = pos + 1
	}
	sc.sortIdx(states, true)
	for pos, i := range sc.idx {
		sc.rho[i] = pos + 1
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d := float64(sc.alpha[i] - sc.rho[i])
		sum += d * d
	}
	return sum / float64(n)
}

// SDM computes the slice disorder measure; see the package-level SDM.
func (sc *scratch) SDM(states []NodeState, part core.Partition) float64 {
	n := len(states)
	if n == 0 {
		return 0
	}
	sc.sortIdx(states, false)
	sum := 0.0
	for pos, i := range sc.idx {
		trueRank := float64(pos+1) / float64(n)
		actual := part.Index(trueRank)
		sum += part.SliceDistance(actual, states[i].SliceIndex)
	}
	return sum
}

// growInts returns buf resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified; callers overwrite every slot.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// SDMSortedRange returns the SDM contribution of positions [lo, hi) of
// an attribute-ordered believed sequence: believed[i] is the slice that
// the i-th node of the attribute-based sequence believes it belongs to.
// A caller that keeps the attribute order incrementally (the simulator's
// engine keeps its membership sorted across churn events) skips the
// per-cycle O(n log n) sort that SDM pays. A parallel measurement pass
// computes fixed-size chunks concurrently and adds the chunk sums in
// chunk order, which keeps the floating-point reduction independent of
// how many workers ran it.
func SDMSortedRange(believed []int32, part core.Partition, lo, hi int) float64 {
	n := len(believed)
	if n == 0 {
		return 0
	}
	sum := 0.0
	for pos := lo; pos < hi; pos++ {
		trueRank := float64(pos+1) / float64(n)
		sum += part.SliceDistance(part.Index(trueRank), int(believed[pos]))
	}
	return sum
}

// GDMRange returns the un-normalized GDM contribution Σ (α_i − ρ_i)² of
// slots [lo, hi), given per-slot attribute and coordinate ranks. The
// caller divides the in-order total by n; like SDMSortedRange it exists
// so a parallel pass can reduce over fixed chunks deterministically.
func GDMRange(alpha, rho []int32, lo, hi int) float64 {
	sum := 0.0
	for i := lo; i < hi; i++ {
		d := float64(alpha[i] - rho[i])
		sum += d * d
	}
	return sum
}

// GDM returns the global disorder measure (§4.2):
//
//	GDM(t) = (1/n) Σ_i (α_i − ρ_i)²
//
// where α_i is node i's rank in the attribute-based sequence and ρ_i its
// rank in the random-value sequence (ties in both orders broken by
// identifier). An empty system has zero disorder.
func GDM(states []NodeState) float64 {
	var sc scratch
	return sc.GDM(states)
}

// SDM returns the slice disorder measure (§4.4):
//
//	SDM(t) = Σ_i 1/(u_i−l_i) · |(u_i+l_i)/2 − (û_i+l̂_i)/2|
//
// where (l_i,u_i] is node i's actual slice — the one containing its true
// normalized rank α_i/n — and (l̂_i,û_i] the slice it believes it belongs
// to. For equal-width slices each term is the absolute index distance.
func SDM(states []NodeState, part core.Partition) float64 {
	var sc scratch
	return sc.SDM(states, part)
}

// MisassignedFraction returns the fraction of nodes whose believed slice
// differs from their actual slice: a coarser cousin of SDM used in the
// examples and acceptance tests.
func MisassignedFraction(states []NodeState, part core.Partition) float64 {
	n := len(states)
	if n == 0 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return core.Less(states[idx[x]].Member, states[idx[y]].Member)
	})
	wrong := 0
	for pos, i := range idx {
		trueRank := float64(pos+1) / float64(n)
		if part.Index(trueRank) != states[i].SliceIndex {
			wrong++
		}
	}
	return float64(wrong) / float64(n)
}
