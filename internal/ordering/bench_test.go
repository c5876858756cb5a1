package ordering

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/view"
)

// rankBench builds a node with a c-entry view plus the matching members
// snapshot (self first, mirroring view storage order). converged draws
// coordinates already aligned with the attribute order, modulo small
// jitter: the nearly-sorted regime a converging system spends most
// cycles in. unconverged draws them independently at random.
func rankBench(c int, converged bool) (*Node, []localMember) {
	rng := rand.New(rand.NewSource(int64(c) + 7))
	v, err := view.New(c)
	if err != nil {
		panic(err)
	}
	attrs := rng.Perm(4 * (c + 1))
	members := []localMember{}
	for i := 0; i <= c; i++ {
		attr := core.Attr(attrs[i] + 1) // distinct, nonzero: packable keys
		var r float64
		if converged {
			r = (float64(attr) + rng.Float64()) / float64(4*(c+1))
		} else {
			r = rng.Float64()
		}
		m := localMember{id: core.ID(i + 1), attr: attr, r: r}
		members = append(members, m)
		if i > 0 {
			v.Add(view.Entry{ID: m.id, Attr: m.attr, R: m.r, Age: uint32(rng.Intn(8))})
		}
	}
	n, err := NewNode(Config{
		ID: members[0].id, Attr: members[0].attr,
		Partition: core.MustEqual(10),
		Policy:    SelectMaxGain, View: v, InitialR: members[0].r,
	})
	if err != nil {
		panic(err)
	}
	return n, members
}

// BenchmarkRankMembers times the exact ℓα/ℓρ count — the fused
// branch-free O(c²) pairwise pass every tick falls back to — on one
// node's local population.
func BenchmarkRankMembers(b *testing.B) {
	for _, c := range []int{20, 40} {
		for _, converged := range []bool{false, true} {
			label := "unconverged"
			if converged {
				label = "converged"
			}
			_, template := rankBench(c, converged)
			members := make([]localMember, len(template))
			b.Run(fmt.Sprintf("kernel=fused/c=%d/%s", c, label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(members, template)
					rankMembers(members)
				}
			})
		}
	}
}
