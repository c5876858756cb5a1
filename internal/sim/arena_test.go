package sim

import (
	"sort"
	"testing"
	"unsafe"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/proto"
)

// checkArenaConsistency verifies the engine's core invariants after the
// struct-of-arrays refactor: every parallel slice has one entry per
// live node, the slot table and the arena agree in both directions,
// every view header is bound onto exactly its slot's arena block, and
// the incrementally maintained membership is exactly the live
// population in attribute order with no departed ID resolving to a
// live node. It also checks the dense mirrors the engine reads instead
// of the protocol nodes against the node state they stand for
// (checkMirrors).
func checkArenaConsistency(t *testing.T, e *Engine) {
	t.Helper()
	n := len(e.ids)
	nodes := len(e.ons) + len(e.rns)
	if len(e.views) != n || len(e.self) != n || nodes != n {
		t.Fatalf("cycle %d: parallel slices out of lockstep: ids=%d views=%d self=%d nodes=%d",
			e.cycle, n, len(e.views), len(e.self), nodes)
	}
	for i := range e.ids {
		s, ok := e.slotOf(e.ids[i])
		if !ok || s != int32(i) {
			t.Fatalf("cycle %d: node %v at slot %d, slot table says (%d,%v)",
				e.cycle, e.ids[i], i, s, ok)
		}
		nodeID := e.memberAt(int32(i)).ID
		if nodeID != e.ids[i] {
			t.Fatalf("cycle %d: slot %d's protocol node is %v, ids slice says %v",
				e.cycle, i, nodeID, e.ids[i])
		}
		// The view header must be bound onto this slot's arena block:
		// same backing pointer, capacity clamped to the stride (the
		// configured view size).
		eb, _, _ := e.varena.Block(i)
		raw := e.views[i].Raw()
		if cap(raw) == 0 || unsafe.SliceData(raw[:cap(raw)]) != unsafe.SliceData(eb[:cap(eb)]) {
			t.Fatalf("cycle %d: slot %d's view is not bound to its arena block", e.cycle, i)
		}
		if cap(raw) > e.cfg.ViewSize {
			t.Fatalf("cycle %d: slot %d's view capacity %d exceeds the arena stride %d",
				e.cycle, i, cap(raw), e.cfg.ViewSize)
		}
		if err := e.views[i].Validate(); err != nil {
			t.Fatalf("cycle %d: slot %d: %v", e.cycle, i, err)
		}
	}
	live := 0
	for id := core.ID(1); int(id) < len(e.slots); id++ {
		s := e.slots[id]
		if s == noSlot {
			// A departed ID must read unknown in the coordinate table, so
			// a tick falls back to the view's entry for it.
			if int(id) < len(e.coordTab) {
				if r := e.coordTab[id]; r == r {
					t.Fatalf("cycle %d: departed %v resolves to %v in the coordinate table", e.cycle, id, r)
				}
			}
			continue
		}
		live++
		if int(s) >= n {
			t.Fatalf("cycle %d: slot %d for %v beyond arena size %d", e.cycle, s, id, n)
		}
		if e.ids[s] != id {
			t.Fatalf("cycle %d: slot %d holds %v, slot table maps %v there",
				e.cycle, s, e.ids[s], id)
		}
	}
	if live != n {
		t.Fatalf("cycle %d: %d live slot entries vs arena size %d", e.cycle, live, n)
	}
	if len(e.members) != n {
		t.Fatalf("cycle %d: membership has %d entries, arena %d", e.cycle, len(e.members), n)
	}
	for i, m := range e.members {
		if i > 0 && !core.Less(e.members[i-1], m) {
			t.Fatalf("cycle %d: membership out of order at %d: %v !< %v",
				e.cycle, i, e.members[i-1], m)
		}
		s, ok := e.slotOf(m.ID)
		if !ok {
			t.Fatalf("cycle %d: membership lists departed node %v", e.cycle, m.ID)
		}
		// The membership holds real attributes; a liar's node advertises
		// its lie.
		got := e.memberAt(s)
		got.Attr = e.faults.Real(got.ID, got.Attr)
		if got != m {
			t.Fatalf("cycle %d: membership entry %v diverges from node state %v",
				e.cycle, m, got)
		}
	}
	checkMirrors(t, e)
}

// checkMirrors pins the ordering engine's dense mirrors to the node
// state they stand for: rs and attrs to each node's random value and
// attribute, the last measurement's staged slice (once a cycle has been
// measured) to the node's current believed slice, and the swap-counter
// totals to the Stats sums over the live nodes.
func checkMirrors(t *testing.T, e *Engine) {
	t.Helper()
	n := len(e.ids)
	if e.ons == nil {
		if len(e.rs) != 0 || len(e.attrs) != 0 {
			t.Fatalf("cycle %d: ranking engine holds ordering mirrors", e.cycle)
		}
		return
	}
	if len(e.rs) != n || len(e.attrs) != n || len(e.slotBelieved) != n {
		t.Fatalf("cycle %d: mirrors out of lockstep: n=%d rs=%d attrs=%d slotBelieved=%d",
			e.cycle, n, len(e.rs), len(e.attrs), len(e.slotBelieved))
	}
	var recv, fail uint64
	for s := range e.ons {
		on := &e.ons[s]
		if e.rs[s] != on.Estimate() {
			t.Fatalf("cycle %d: slot %d rs mirror %v, node holds %v", e.cycle, s, e.rs[s], on.Estimate())
		}
		if e.attrs[s] != on.Member().Attr {
			t.Fatalf("cycle %d: slot %d attrs mirror %v, node holds %v", e.cycle, s, e.attrs[s], on.Member().Attr)
		}
		if e.cycle > 0 && int(e.slotBelieved[s]) != on.SliceIndex() {
			t.Fatalf("cycle %d: slot %d measured slice %d, node believes %d",
				e.cycle, s, e.slotBelieved[s], on.SliceIndex())
		}
		st := on.Stats()
		recv += st.ReqReceived
		fail += st.SwapFailedAtReceiver
	}
	if e.recvTotal != recv || e.failRecvTotal != fail {
		t.Fatalf("cycle %d: swap totals (received %d, failed %d), live Stats sums (%d, %d)",
			e.cycle, e.recvTotal, e.failRecvTotal, recv, fail)
	}
}

// TestSwapDeleteNeverStrandsNode drives heavy interleaved join/leave
// churn — far above any figure's rate, so swap-delete constantly moves
// arena tails into vacated slots — and re-verifies every engine
// invariant after each cycle, for both leaver-selection patterns.
func TestSwapDeleteNeverStrandsNode(t *testing.T) {
	patterns := map[string]churn.Pattern{
		"uniform":    churn.Uniform{Dist: dist.Uniform{Lo: 0, Hi: 1000}},
		"correlated": churn.Correlated{Spread: 10},
	}
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []proto.Kind{proto.Ordering, proto.Ranking} {
				cfg := Config{
					N: 300, Slices: 10, ViewSize: 10,
					Protocol: kind,
					AttrDist: dist.Uniform{Lo: 0, Hi: 1000},
					Seed:     11,
					Schedule: churn.Flat{JoinRate: 0.08, LeaveRate: 0.1},
					Pattern:  pattern,
				}
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkArenaConsistency(t, e)
				for i := 0; i < 40; i++ {
					e.Step()
					checkArenaConsistency(t, e)
				}
				if e.N() >= cfg.N {
					t.Errorf("%v: net-negative churn did not shrink the population: %d", kind, e.N())
				}
			}
		})
	}
}

// sortedMemberSnapshot captures the live membership in a canonical
// order for cross-run comparison.
func sortedMemberSnapshot(e *Engine) []core.Member {
	members := make([]core.Member, 0, e.N())
	for _, st := range e.States() {
		members = append(members, st.Member)
	}
	sort.Slice(members, func(i, j int) bool { return core.Less(members[i], members[j]) })
	return members
}

// TestChurnDeterminismAtScale is the arena refactor's determinism gate:
// the same seed at N=10,000 under flat churn must reproduce the SDM
// series point-for-point and the exact final membership across two
// independent runs — swap-delete order, membership merging and
// generation-stamped sampling are all deterministic.
func TestChurnDeterminismAtScale(t *testing.T) {
	cfg := Config{
		N: 10_000, Slices: 100, ViewSize: 20,
		Protocol: proto.Ordering,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000},
		Seed:     3,
		Schedule: churn.Flat{JoinRate: 0.001, LeaveRate: 0.001},
		Pattern:  churn.Correlated{Spread: 10},
	}
	const cycles = 50
	run := func() (*Engine, *Result) {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(cycles)
		return e, &Result{SDM: e.SDM(), FinalN: e.N()}
	}
	e1, a := run()
	e2, b := run()
	if len(a.SDM.Points) != len(b.SDM.Points) {
		t.Fatalf("SDM series lengths differ: %d vs %d", len(a.SDM.Points), len(b.SDM.Points))
	}
	for i := range a.SDM.Points {
		if a.SDM.Points[i] != b.SDM.Points[i] {
			t.Fatalf("SDM series diverges at point %d: %+v vs %+v",
				i, a.SDM.Points[i], b.SDM.Points[i])
		}
	}
	m1, m2 := sortedMemberSnapshot(e1), sortedMemberSnapshot(e2)
	if len(m1) != len(m2) {
		t.Fatalf("final membership sizes differ: %d vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("final membership diverges at %d: %v vs %v", i, m1[i], m2[i])
		}
	}
	checkArenaConsistency(t, e1)
	checkArenaConsistency(t, e2)
}

// TestSDMMatchesSortedMeasure pins the engine's O(n) SDM path (cached
// attribute order + metrics.SDMSortedRange) to the reference sort-based
// measure, under churn so the incrementally merged order is exercised.
func TestSDMMatchesSortedMeasure(t *testing.T) {
	cfg := baseRankingConfig()
	cfg.Schedule = churn.Flat{JoinRate: 0.02, LeaveRate: 0.02}
	cfg.Pattern = churn.Uniform{Dist: cfg.AttrDist}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Step()
		last, ok := e.SDM().Last()
		if !ok {
			t.Fatal("no SDM recorded")
		}
		want := referenceSDM(e)
		if last.Value != want {
			t.Fatalf("cycle %d: engine SDM %v != reference sort-based SDM %v",
				e.Cycle(), last.Value, want)
		}
	}
}

func referenceSDM(e *Engine) float64 {
	states := e.States()
	idx := make([]int, len(states))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return core.Less(states[idx[x]].Member, states[idx[y]].Member)
	})
	sum := 0.0
	n := len(states)
	for pos, i := range idx {
		trueRank := float64(pos+1) / float64(n)
		sum += e.part.SliceDistance(e.part.Index(trueRank), states[i].SliceIndex)
	}
	return sum
}
