package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Partition errors.
var (
	// ErrNoSlices is returned when a partition with zero slices is requested.
	ErrNoSlices = errors.New("core: partition needs at least one slice")
	// ErrBadBoundary is returned when interior boundaries are not strictly
	// increasing inside (0,1).
	ErrBadBoundary = errors.New("core: boundaries must be strictly increasing in (0,1)")
)

// Partition is an ordered set of adjacent slices (l_1,u_1],(l_2,u_2],...
// covering the whole normalized rank domain (0,1]. Per the paper (§3.2)
// the partition is global knowledge: every node knows it.
//
// A Partition is one pointer to an immutable table built by Equal or
// NewPartition, so copies are cheap and share it. The zero value is the
// single slice (0,1].
type Partition struct {
	t *partitionTable
}

// partitionTable is what every copy of a Partition shares. The grid
// turns "how many boundaries lie strictly below r" — the one question
// behind Index and NearestBoundary, asked per neighbor per cycle by the
// ranking tick — into one load plus a short walk.
type partitionTable struct {
	// bounds holds the interior boundaries, strictly increasing, inside
	// (0,1). A partition with k slices has k-1 interior boundaries.
	bounds []float64
	// grid[g] is the number of boundaries strictly below g/cells, for
	// g in [0, cells]. cells is a power of two, so r·cells and g/cells
	// are exact and the grid agrees with comparisons on the boundaries
	// themselves for every float64.
	grid  []int32
	cells float64
}

// newPartition indexes boundaries that are already sorted and validated.
func newPartition(bounds []float64) Partition {
	cells := 4
	for cells < 4*(len(bounds)+1) {
		cells *= 2
	}
	t := &partitionTable{bounds: bounds, grid: make([]int32, cells+1), cells: float64(cells)}
	for _, b := range bounds {
		t.grid[int(b*t.cells)+1]++
	}
	for g := 1; g <= cells; g++ {
		t.grid[g] += t.grid[g-1]
	}
	return Partition{t: t}
}

// Equal returns a partition of k equally sized slices.
func Equal(k int) (Partition, error) {
	if k < 1 {
		return Partition{}, ErrNoSlices
	}
	bounds := make([]float64, k-1)
	for i := 1; i < k; i++ {
		bounds[i-1] = float64(i) / float64(k)
	}
	return newPartition(bounds), nil
}

// MustEqual is Equal for static configuration; it panics on error.
func MustEqual(k int) Partition {
	p, err := Equal(k)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPartition builds a partition from interior boundaries. For example
// NewPartition(0.8) defines two slices (0,0.8] and (0.8,1]: the "bottom
// 80%" and the "top 20%". NewPartition() defines the single slice (0,1].
func NewPartition(bounds ...float64) (Partition, error) {
	sorted := make([]float64, len(bounds))
	copy(sorted, bounds)
	sort.Float64s(sorted)
	for i, b := range sorted {
		if b <= 0 || b >= 1 || math.IsNaN(b) {
			return Partition{}, fmt.Errorf("%w: boundary %v out of range", ErrBadBoundary, b)
		}
		if i > 0 && sorted[i-1] >= b {
			return Partition{}, fmt.Errorf("%w: duplicate boundary %v", ErrBadBoundary, b)
		}
	}
	return newPartition(sorted), nil
}

// interior returns the interior boundaries (shared, not a copy).
func (p Partition) interior() []float64 {
	if p.t == nil {
		return nil
	}
	return p.t.bounds
}

// below returns the number of interior boundaries strictly below r:
// the first i with bounds[i] >= r, or len(bounds) when there is none
// (r ≥ 1, +Inf, and NaN, which no boundary is ≥).
func (p Partition) below(r float64) int {
	t := p.t
	if t == nil || r <= 0 {
		return 0
	}
	if !(r < 1) {
		return len(t.bounds)
	}
	// g/cells ≤ r < (g+1)/cells: at least grid[g] boundaries lie below
	// r and at most grid[g+1]; the ones between share r's cell.
	g := int(r * t.cells)
	i, hi := int(t.grid[g]), int(t.grid[g+1])
	for i < hi && t.bounds[i] < r {
		i++
	}
	return i
}

// Len returns the number of slices.
func (p Partition) Len() int { return len(p.interior()) + 1 }

// Slice returns the i-th slice (0-based).
func (p Partition) Slice(i int) Slice {
	bounds := p.interior()
	low, high := 0.0, 1.0
	if i > 0 {
		low = bounds[i-1]
	}
	if i < len(bounds) {
		high = bounds[i]
	}
	return Slice{Low: low, High: high}
}

// Slices returns all slices in order.
func (p Partition) Slices() []Slice {
	out := make([]Slice, p.Len())
	for i := range out {
		out[i] = p.Slice(i)
	}
	return out
}

// Index returns the index of the slice containing normalized rank r.
// Values r ≤ 0 clamp to the first slice and r > 1 to the last, so that
// degenerate estimates (an empty estimator reports 0) still map to a
// slice, as every node must always report some slice.
func (p Partition) Index(r float64) int {
	// The slice containing r is the first one whose upper boundary is ≥ r,
	// i.e. the number of interior boundaries strictly below r. A rank
	// exactly on a boundary belongs to the lower slice ((l,u] intervals),
	// and ranks beyond 1 clamp because below never exceeds len(bounds).
	return p.below(r)
}

// Of returns the slice containing normalized rank r (clamped like Index).
func (p Partition) Of(r float64) Slice { return p.Slice(p.Index(r)) }

// Boundaries returns the interior boundaries (a copy).
func (p Partition) Boundaries() []float64 {
	return append([]float64(nil), p.interior()...)
}

// NearestBoundary returns the interior boundary closest to rank r and the
// distance to it. Ranking nodes use it to bias gossip toward nodes whose
// estimate sits close to a boundary (paper §5.1); Theorem 5.1 expresses
// the required sample count in terms of this distance.
//
// A partition with a single slice has no interior boundary; in that case
// NearestBoundary returns (NaN, +Inf): no node is ever "close to a
// boundary".
func (p Partition) NearestBoundary(r float64) (boundary, dist float64) {
	bounds, i := p.interior(), p.below(r)
	boundary, dist = math.NaN(), math.Inf(1)
	if i < len(bounds) {
		boundary, dist = bounds[i], bounds[i]-r
	}
	if i > 0 && r-bounds[i-1] < dist {
		boundary, dist = bounds[i-1], r-bounds[i-1]
	}
	return boundary, dist
}

// BoundaryDistance returns only the distance component of NearestBoundary.
func (p Partition) BoundaryDistance(r float64) float64 {
	_, d := p.NearestBoundary(r)
	return d
}

// SliceDistance returns the slice disorder contribution of a node whose
// actual slice is index act and whose estimated slice is index est:
// 1/(u−l) · |mid(actual) − mid(estimated)| (paper §4.4). For equal-width
// partitions this equals |act − est|.
func (p Partition) SliceDistance(act, est int) float64 {
	actual := p.Slice(act)
	estimated := p.Slice(est)
	return math.Abs(actual.Mid()-estimated.Mid()) / actual.Width()
}

// Validate checks internal invariants; it is primarily exercised by
// property tests.
func (p Partition) Validate() error {
	bounds := p.interior()
	for i, b := range bounds {
		if b <= 0 || b >= 1 {
			return fmt.Errorf("%w: %v", ErrBadBoundary, b)
		}
		if i > 0 && bounds[i-1] >= b {
			return fmt.Errorf("%w: %v after %v", ErrBadBoundary, b, bounds[i-1])
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (p Partition) String() string {
	parts := make([]string, p.Len())
	for i := range parts {
		parts[i] = p.Slice(i).String()
	}
	return strings.Join(parts, " ")
}
