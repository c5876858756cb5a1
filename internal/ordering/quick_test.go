package ordering

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/view"
)

// Property: over random local populations, the closed-form gain is
// positive exactly for misplaced pairs (G > 0 ⟺ the pair is
// misplaced), provided attributes and random values are distinct.
func TestGainPositiveIffMisplaced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		attrs := make([]core.Attr, n)
		rs := make([]float64, n)
		usedA := map[core.Attr]bool{}
		usedR := map[float64]bool{}
		for i := range attrs {
			for {
				a := core.Attr(rng.Intn(1000))
				if !usedA[a] {
					usedA[a] = true
					attrs[i] = a
					break
				}
			}
			for {
				r := rng.Float64()
				if r > 0 && !usedR[r] {
					usedR[r] = true
					rs[i] = r
					break
				}
			}
		}
		// Build a node with a full view and compute local sequences.
		c := quickCluster(attrs, rs)
		node := c.nodes[1]
		self := node.self()
		local := rankMembers(self.localMembers(node.Estimate(), c.live(), new(Scratch)))
		for _, m := range local.others {
			g := local.gain(local.self, m)
			misplaced := Misplaced(node.attr, m.attr, node.Estimate(), m.r)
			if (g > 0) != misplaced {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a full synchronous sweep never increases the number of
// misplaced pairs in a clique (monotone progress of the swap protocol).
func TestSweepNeverIncreasesDisorder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		attrs := make([]core.Attr, n)
		rs := make([]float64, n)
		for i := range attrs {
			attrs[i] = core.Attr(rng.Intn(100))
			rs[i] = 1 - rng.Float64()
		}
		c := quickCluster(attrs, rs)
		before := c.misplacedPairs()
		loop := rand.New(rand.NewSource(seed + 1))
		c.step(loop)
		after := c.misplacedPairs()
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// quickCluster builds a fully connected test cluster without *testing.T
// so property functions can construct it.
func quickCluster(attrs []core.Attr, rs []float64) *cluster {
	part := core.MustEqual(len(attrs))
	c := &cluster{nodes: make(map[core.ID]*Node, len(attrs))}
	for i := range attrs {
		id := core.ID(i + 1)
		v := view.MustNew(len(attrs))
		n, err := NewNode(Config{
			ID: id, Attr: attrs[i], Partition: part,
			Policy: SelectMaxGain, View: v, InitialR: rs[i],
		})
		if err != nil {
			panic(err)
		}
		c.nodes[id] = n
		c.order = append(c.order, id)
	}
	for _, id := range c.order {
		for _, other := range c.order {
			if other != id {
				c.nodes[id].View().Add(c.nodes[other].SelfEntry())
			}
		}
	}
	return c
}

func (c *cluster) misplacedPairs() int {
	count := 0
	for i, a := range c.order {
		for _, b := range c.order[i+1:] {
			na, nb := c.nodes[a], c.nodes[b]
			if Misplaced(na.attr, nb.attr, na.Estimate(), nb.Estimate()) {
				count++
			}
		}
	}
	return count
}
