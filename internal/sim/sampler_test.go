package sim

import (
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/view"
)

// seenGenSampler is the sampler as it was before it deduplicated
// against its own draws: a generation-stamped table with one entry per
// slot, the owner excluded by ID, the k draws taken ahead of the accept
// loop. TestSamplerMatchesSeenGen pins the current sampler to it.
type seenGenSampler struct {
	seenGen []uint32
	gen     uint32
	buf     []view.Entry
	idx     []int
}

func (sp *seenGenSampler) sample(ids []core.ID, selfs []view.Entry, rng core.RNG, k int, exclude core.ID) []view.Entry {
	n := len(ids)
	out := sp.buf[:0]
	if n == 0 || k <= 0 {
		return out
	}
	if k >= n {
		for i := range ids {
			if ids[i] != exclude {
				out = append(out, selfs[i])
			}
		}
		sp.buf = out
		return out
	}
	if cap(sp.seenGen) < n {
		sp.seenGen = make([]uint32, n)
	}
	sp.seenGen = sp.seenGen[:n]
	sp.gen++
	if sp.gen == 0 {
		clear(sp.seenGen)
		sp.gen = 1
	}
	gen := sp.gen
	if cap(sp.idx) < k {
		sp.idx = make([]int, k)
	}
	idx := sp.idx[:k]
	for j := range idx {
		idx[j] = rng.Intn(n)
	}
	drawn := 0
	j := 0
	for len(out) < k && drawn < n {
		var i int
		if j < len(idx) {
			i = idx[j]
			j++
		} else {
			i = rng.Intn(n)
		}
		if sp.seenGen[i] == gen {
			continue
		}
		sp.seenGen[i] = gen
		drawn++
		if ids[i] == exclude {
			continue
		}
		out = append(out, selfs[i])
	}
	sp.buf = out
	return out
}

// TestSamplerMatchesSeenGen: for every population size n in [2, 64],
// every owner slot and k ∈ {1, n−1, n, n+3}, the sampler returns the
// same entries in the same order as the seen-table version and leaves
// the RNG at the same point. One sampler of each kind serves every
// call, so reuse across calls is covered too.
func TestSamplerMatchesSeenGen(t *testing.T) {
	var cur sampler
	var old seenGenSampler
	for n := 2; n <= 64; n++ {
		// Sparse, shuffled IDs: the owner is excluded by slot now and
		// by ID before, and the two must agree.
		ids := make([]core.ID, n)
		selfs := make([]view.Entry, n)
		for i, p := range rand.New(rand.NewSource(int64(n))).Perm(n) {
			ids[i] = core.ID(3*p + 1)
			selfs[i] = view.Entry{ID: ids[i], Attr: core.Attr(p), R: float64(i) / float64(n)}
		}
		for _, k := range []int{1, n - 1, n, n + 3} {
			for owner := 0; owner < n; owner++ {
				seed := int64(1000*n + 10*k + owner)
				ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := old.sample(ids, selfs, ra, k, ids[owner])
				slots := cur.sample(rb, n, k, int32(owner))
				if len(slots) != len(want) {
					t.Fatalf("n=%d k=%d owner=%d: %d slots, seen-table version drew %d", n, k, owner, len(slots), len(want))
				}
				for i, s := range slots {
					if selfs[s] != want[i] {
						t.Fatalf("n=%d k=%d owner=%d: draw %d is %v, seen-table version drew %v", n, k, owner, i, selfs[s], want[i])
					}
				}
				if a, b := ra.Int63(), rb.Int63(); a != b {
					t.Fatalf("n=%d k=%d owner=%d: RNG consumption differs (next draws %d vs %d)", n, k, owner, a, b)
				}
			}
		}
	}
}
