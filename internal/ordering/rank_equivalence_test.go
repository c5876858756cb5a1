package ordering

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// mapReader is a StateReader over a map: the reference resolution path
// the equivalence properties compare the CoordTable fast path against.
type mapReader map[core.ID]float64

func (m mapReader) R(id core.ID) (float64, bool) {
	r, ok := m[id]
	return r, ok
}

// randomRankState draws one tick state: a view sprinkled with
// placeholder entries and neighbors the snapshot does not know
// (departed nodes falling back to the view's recorded coordinate).
// tieHeavy trials draw attributes and coordinates from small discrete
// pools — forcing the attribute/coordinate ties and zero attributes
// that make the packed kernel refuse — while the rest draw continuous
// values, the distinct-key regime the packed kernel accepts.
func randomRankState(rng *rand.Rand, tieHeavy bool) (*Node, mapReader, proto.CoordTable) {
	c := 1 + rng.Intn(25)
	v, err := view.New(c)
	if err != nil {
		panic(err)
	}
	maxID := core.ID(2*c + 2)
	coords := make(proto.CoordTable, int(maxID)+1)
	for i := range coords {
		coords[i] = math.NaN()
	}
	reader := mapReader{}
	drawAttr := func() core.Attr {
		if !tieHeavy {
			return core.Attr(rng.Float64()*1000 + 1)
		}
		if rng.Intn(12) == 0 {
			return 0 // exact zero: the floatKey gate
		}
		return core.Attr(rng.Intn(2*c) + 1) // small pool: frequent ties
	}
	drawR := func() float64 {
		if !tieHeavy {
			return rng.Float64()
		}
		return float64(rng.Intn(2*c)+1) / float64(2*c+1) // small pool: frequent ties
	}
	ids := rng.Perm(int(maxID) - 1)
	selfID := core.ID(ids[0] + 1)
	for i := 1; i <= c; i++ {
		e := view.Entry{
			ID:   core.ID(ids[i] + 1),
			Attr: drawAttr(),
			R:    drawR(),
			Age:  uint32(rng.Intn(6)),
		}
		if rng.Intn(10) == 0 {
			e.Age = view.AgeUnknown // placeholder contact
		}
		v.Add(e)
		// ~70% of neighbors are known to the snapshot, with a coordinate
		// that may disagree with the view's recorded one; the rest are
		// departed (NaN in the table, absent from the reader).
		if rng.Intn(10) < 7 {
			live := drawR()
			coords[e.ID] = live
			reader[e.ID] = live
		}
	}
	selfR := drawR()
	coords[selfID] = selfR
	reader[selfID] = selfR
	n, err := NewNode(Config{
		ID: selfID, Attr: drawAttr() + 1, Partition: core.MustEqual(4),
		Policy: SelectMaxGain, View: v, InitialR: selfR,
	})
	if err != nil {
		panic(err)
	}
	return n, reader, coords
}

// TestTickSwapFastMatchesTickSwap is the swap-decision property pin:
// over adversarial random states — attribute and coordinate ties,
// zero attributes, placeholders, departed neighbors — TickSwapFast
// (partial packed kernel or exact count behind rankLocal, CoordTable
// resolution) must make EXACTLY the swap decision TickSwap (fused O(c²)
// pairwise count, StateReader resolution) makes: same partner, same
// payload, same no-swap ticks. The test replays rankLocal's dispatch on
// the gathered members to count which kernel decided each trial, so
// both sides of the dispatch — and the tie fallback — are known to run.
func TestTickSwapFastMatchesTickSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	scrRef := &Scratch{}
	// One fast scratch per population, as an engine worker holds it: the
	// noPack latch is a per-population fact. Every other tie-heavy trial
	// takes a fresh scratch instead, so the refuse-then-count path keeps
	// running after the shared one has latched.
	scrCont, scrTied := &Scratch{}, &Scratch{}
	var byPartial, byExact, byExactTied int
	for trial := 0; trial < 3000; trial++ {
		tieHeavy := trial%3 == 1
		n, reader, coords := randomRankState(rng, tieHeavy)
		scrFast := scrCont
		if tieHeavy {
			scrFast = scrTied
			if trial%2 == 0 {
				scrFast = &Scratch{}
			}
		}
		latched := scrFast.noPack
		selfR, _ := reader.R(n.ID())
		refTo, refReq, refOK := n.TickSwap(reader, rng, scrRef)
		refStats := n.stats
		n.stats = Stats{}
		fastTo, fastReq, fastOK := n.TickSwapFast(selfR, coords, scrFast)
		if refOK != fastOK || refTo != fastTo || refReq != fastReq {
			t.Fatalf("trial %d: decision diverges:\n reference: to=%v req=%+v ok=%v\n fast:      to=%v req=%+v ok=%v",
				trial, refTo, refReq, refOK, fastTo, fastReq, fastOK)
		}
		if n.stats != refStats {
			t.Fatalf("trial %d: stats side effects diverge: %+v vs %+v", trial, n.stats, refStats)
		}
		if !refOK {
			continue
		}
		members, misp := scrFast.members, scrFast.misp
		partial := false
		if 2*(len(misp)+1) <= len(members) && !latched {
			unranked := make([]localMember, len(members))
			for i, m := range members {
				unranked[i] = localMember{id: m.id, attr: m.attr, r: m.r}
			}
			partial = rankMembersPackedPartial(unranked, &Scratch{}, misp) == packedOK
		}
		switch {
		case partial:
			byPartial++
		case tieHeavy:
			byExactTied++
			fallthrough
		default:
			byExact++
		}
	}
	if byPartial < 300 || byExact < 300 || byExactTied < 100 {
		t.Fatalf("dispatch coverage too thin over 3000 trials: %d decided by the partial kernel (want ≥ 300), %d by the exact count (≥ 300), %d of those tie-heavy (≥ 100)",
			byPartial, byExact, byExactTied)
	}
	t.Logf("decided by partial kernel: %d, by exact count: %d (%d tie-heavy)", byPartial, byExact, byExactTied)
}

// TestRankMembersPartialEquivalence pins the partial-scan kernel: for
// the rows it scans (self plus every misplaced member) the assigned
// ranks must equal the fused reference count's, and on tie inputs it
// must refuse rather than commit.
func TestRankMembersPartialEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	accepted := 0
	for trial := 0; trial < 3000; trial++ {
		n, reader, _ := randomRankState(rng, trial%3 == 1)
		selfR, _ := reader.R(n.ID())
		scr := &Scratch{}
		members := n.localMembers(selfR, reader, scr)
		if len(members) < 2 {
			continue
		}
		misp := []int32{}
		for i := 1; i < len(members); i++ {
			if Misplaced(n.attr, members[i].attr, selfR, members[i].r) {
				misp = append(misp, int32(i))
			}
		}
		if len(misp) == 0 {
			continue
		}
		ref := make([]localMember, len(members))
		copy(ref, members)
		n.rankMembers(ref)

		partial := make([]localMember, len(members))
		copy(partial, members)
		pscr := &Scratch{}
		if rankMembersPackedPartial(partial, pscr, misp) != packedOK {
			continue
		}
		accepted++
		if partial[0].la != ref[0].la || partial[0].lr != ref[0].lr {
			t.Fatalf("trial %d: partial self ranks diverge: (%d,%d) vs (%d,%d)",
				trial, partial[0].la, partial[0].lr, ref[0].la, ref[0].lr)
		}
		for _, xi := range misp {
			if partial[xi].la != ref[xi].la || partial[xi].lr != ref[xi].lr {
				t.Fatalf("trial %d: partial ranks diverge at member %d: (%d,%d) vs (%d,%d)",
					trial, xi, partial[xi].la, partial[xi].lr, ref[xi].la, ref[xi].lr)
			}
		}
	}
	if accepted < 200 {
		t.Fatalf("partial kernel accepted only %d/3000 trials; the property barely exercises it", accepted)
	}
}

// TestTickTableMatchesTickSwap pins the one policy dispatch both
// engines run. For every policy, TickTable over a table must make the
// decision TickSwap makes over a reader that answers as the table does,
// and TickTable over the nil table — the live tick — the decision
// TickSwap makes over a reader backed by the node's own view and value:
// the same partner, payload and stats, with the RNG left at the same
// next draw.
func TestTickTableMatchesTickSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	policies := []Policy{SelectMaxGain, SelectRandomMisplaced}
	sent := map[Policy]int{}
	for trial := 0; trial < 3000; trial++ {
		n, reader, coords := randomRankState(rng, trial%3 == 1)
		n.policy = policies[(trial/3)%len(policies)]
		selfR, _ := reader.R(n.ID())
		viewBacked := proto.FuncReader(func(id core.ID) (float64, bool) {
			if id == n.ID() {
				return n.Estimate(), true
			}
			e, ok := n.View().Get(id)
			return e.R, ok
		})
		for _, c := range []struct {
			state  proto.StateReader
			selfR  float64
			coords proto.CoordTable
		}{
			{reader, selfR, coords},
			{viewBacked, n.Estimate(), nil},
		} {
			seed := rng.Int63()
			refRng, rng2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			n.stats = Stats{}
			refTo, refReq, refOK := n.TickSwap(c.state, refRng, &Scratch{})
			refStats := n.stats
			n.stats = Stats{}
			to, req, ok := n.TickTable(c.selfR, c.coords, rng2, &Scratch{})
			if refOK != ok || refTo != to || refReq != req {
				t.Fatalf("trial %d (%v, table=%v): decision diverges:\n reference: to=%v req=%+v ok=%v\n table:     to=%v req=%+v ok=%v",
					trial, n.policy, c.coords != nil, refTo, refReq, refOK, to, req, ok)
			}
			if n.stats != refStats {
				t.Fatalf("trial %d (%v): stats diverge: %+v vs %+v", trial, n.policy, n.stats, refStats)
			}
			if a, b := refRng.Int63(), rng2.Int63(); a != b {
				t.Fatalf("trial %d (%v): RNG left at different draws", trial, n.policy)
			}
			if ok {
				sent[n.policy]++
			}
		}
	}
	for _, p := range policies {
		if sent[p] < 300 {
			t.Fatalf("%v sent only %d requests over 6000 ticks", p, sent[p])
		}
	}
}
