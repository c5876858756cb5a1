package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Partition.Index agrees with a linear-scan reference over
// random partitions and probes.
func TestIndexMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(12)
		bounds := make([]float64, 0, k-1)
		for len(bounds) < k-1 {
			b := rng.Float64()
			if b > 0 && b < 1 {
				bounds = append(bounds, b)
			}
		}
		p, err := NewPartition(bounds...)
		if err != nil {
			return true // duplicate draw: skip
		}
		for probe := 0; probe < 30; probe++ {
			r := rng.Float64()*1.2 - 0.1 // include out-of-domain probes
			want := 0
			for i := 0; i < p.Len(); i++ {
				if p.Slice(i).Contains(r) {
					want = i
					break
				}
				// Clamps: below domain → first, above → last.
				if r <= 0 {
					want = 0
					break
				}
				if r > 1 {
					want = p.Len() - 1
				}
			}
			if got := p.Index(r); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: NearestBoundary returns the true minimum distance over all
// interior boundaries.
func TestNearestBoundaryIsMinimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		bounds := make([]float64, 0, k-1)
		for len(bounds) < k-1 {
			b := rng.Float64()
			if b > 0 && b < 1 {
				bounds = append(bounds, b)
			}
		}
		p, err := NewPartition(bounds...)
		if err != nil {
			return true
		}
		for probe := 0; probe < 20; probe++ {
			r := rng.Float64()
			_, got := p.NearestBoundary(r)
			want := math.Inf(1)
			for _, b := range p.interior() {
				if d := math.Abs(r - b); d < want {
					want = d
				}
			}
			if math.Abs(got-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SliceDistance is symmetric under swapping actual/estimated
// for equal-width partitions, zero iff equal indices, and satisfies the
// triangle inequality on indices.
func TestSliceDistanceMetricProperties(t *testing.T) {
	p := MustEqual(16)
	f := func(a, b, c uint8) bool {
		i, j, k := int(a%16), int(b%16), int(c%16)
		dij := p.SliceDistance(i, j)
		dji := p.SliceDistance(j, i)
		if math.Abs(dij-dji) > 1e-9 {
			return false
		}
		if (dij == 0) != (i == j) {
			return false
		}
		dik := p.SliceDistance(i, k)
		dkj := p.SliceDistance(k, j)
		return dij <= dik+dkj+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: normalized ranks are strictly increasing along the sorted
// member order and end exactly at 1.
func TestNormalizedRanksStructure(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16%100) + 1
		rng := rand.New(rand.NewSource(seed))
		members := make([]Member, n)
		for i := range members {
			members[i] = Member{ID: ID(i), Attr: Attr(rng.Intn(10))}
		}
		norm := NormalizedRanks(members)
		sorted := make([]Member, n)
		copy(sorted, members)
		SortMembers(sorted)
		prev := 0.0
		for _, m := range sorted {
			r := norm[m.ID]
			if r <= prev {
				return false
			}
			prev = r
		}
		return math.Abs(prev-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
