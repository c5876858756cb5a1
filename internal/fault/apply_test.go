package fault

import (
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

// fakeNodes is a fault.Nodes over a plain map of advertised attributes.
type fakeNodes map[core.ID]core.Attr

func (f fakeNodes) Attr(id core.ID) core.Attr       { return f[id] }
func (f fakeNodes) SetAttr(id core.ID, a core.Attr) { f[id] = a }

// population builds n nodes with attributes 10, 20, …, 10n and IDs
// 1…n, advertised honestly.
func population(n int) fakeNodes {
	nodes := make(fakeNodes, n)
	for i := 1; i <= n; i++ {
		nodes[core.ID(i)] = core.Attr(10 * i)
	}
	return nodes
}

// realMembers is the attribute-ordered membership with real attributes,
// as an engine hands it to Apply.
func realMembers(a *Applier, nodes fakeNodes) []core.Member {
	members := make([]core.Member, 0, len(nodes))
	for id, adv := range nodes {
		members = append(members, core.Member{ID: id, Attr: a.Real(id, adv)})
	}
	core.SortMembers(members)
	return members
}

// cohort returns the IDs of nodes selected under salt at frac.
func cohort(nodes fakeNodes, salt int64, frac float64) []core.ID {
	var ids []core.ID
	for id := range nodes {
		if Select(salt, uint64(id), frac) {
			ids = append(ids, id)
		}
	}
	return ids
}

func TestApplierEmptyPlanIsNoOp(t *testing.T) {
	part := core.MustEqual(10)
	for name, plan := range map[string]*Plan{"nil": nil, "empty": {}} {
		a := NewApplier(plan, 1, part)
		nodes := population(50)
		members := realMembers(a, nodes)
		for c := 0; c < 20; c++ {
			a.Apply(c, members, nodes)
		}
		for id, attr := range population(50) {
			if nodes[id] != attr {
				t.Errorf("%s plan: node %d moved %v → %v", name, id, attr, nodes[id])
			}
		}
		if a.Counts != (Counts{}) {
			t.Errorf("%s plan: counts %+v, want zero", name, a.Counts)
		}
		if _, ok := a.Pollution(0, nil); ok {
			t.Errorf("%s plan: Pollution ok without a byzantine family", name)
		}
	}
}

// TestApplierDriftOnLiarAndLift pins the liar/drift interplay: a drift
// step on a lying node moves its stashed real attribute while it keeps
// advertising a lie, and lifting the lie restores the drifted real
// attribute.
func TestApplierDriftOnLiarAndLift(t *testing.T) {
	const n, amp = 40, 5
	plan := &Plan{
		Drift:     &Drift{Kind: DriftStep, Window: Window{From: 3}, Frac: 1, Amp: amp},
		Byzantine: &Byzantine{Policy: LieAlwaysTop, Window: Window{From: 0, To: 10}, Frac: 0.3},
	}
	a := NewApplier(plan, 7, core.MustEqual(10))
	nodes := population(n)
	initial := population(n)
	liars := cohort(nodes, a.saltByz, plan.Byzantine.Frac)
	if len(liars) == 0 || len(liars) == n {
		t.Fatalf("degenerate liar cohort: %d of %d", len(liars), n)
	}
	for c := 0; c < 3; c++ {
		a.Apply(c, realMembers(a, nodes), nodes)
	}
	if got := a.Counts.LiesInstalled; got != uint64(len(liars)) {
		t.Fatalf("LiesInstalled = %d, want %d", got, len(liars))
	}
	members := realMembers(a, nodes)
	a.Apply(3, members, nodes)
	if got := a.Counts.DriftPerturbations; got != n {
		t.Fatalf("DriftPerturbations = %d, want %d", got, n)
	}
	top := members[len(members)-1].Attr
	for _, id := range liars {
		if got, want := a.Real(id, nodes[id]), initial[id]+amp; got != want {
			t.Errorf("liar %d: stashed real attribute %v, want drifted %v", id, got, want)
		}
		if nodes[id] <= top {
			t.Errorf("liar %d advertises %v, not a lie above the real maximum %v", id, nodes[id], top)
		}
	}
	for c := 4; c <= 10; c++ {
		a.Apply(c, realMembers(a, nodes), nodes)
	}
	for id, attr := range initial {
		if got := nodes[id]; got != attr+amp {
			t.Errorf("node %d advertises %v after the lie window, want its drifted real %v", id, got, attr+amp)
		}
	}
	if len(a.lying) != 0 {
		t.Errorf("%d stashes left after the lie window closed", len(a.lying))
	}
}

func TestApplierForgetDropsStash(t *testing.T) {
	plan := &Plan{Byzantine: &Byzantine{Policy: LieRandom, Window: Window{From: 0, To: 5}, Frac: 1}}
	a := NewApplier(plan, 3, core.MustEqual(4))
	nodes := population(10)
	a.Apply(0, realMembers(a, nodes), nodes)
	const gone = core.ID(4)
	if a.Real(gone, -1) != 40 {
		t.Fatalf("liar %d: Real = %v, want its stashed 40", gone, a.Real(gone, -1))
	}
	a.Forget(gone)
	if got := a.Real(gone, -1); got != -1 {
		t.Errorf("forgotten node: Real = %v, want the advertised -1", got)
	}
	delete(nodes, gone)
	a.Apply(5, realMembers(a, nodes), nodes)
	if len(a.lying) != 0 {
		t.Errorf("%d stashes left after the lie window closed", len(a.lying))
	}
}

// TestApplierCollusiveLieInTargetSlice pins that a collusive lie lands
// inside the target slice's attribute-quantile range.
func TestApplierCollusiveLieInTargetSlice(t *testing.T) {
	const n = 100
	part := core.MustEqual(10)
	three := 3
	for _, target := range []*int{&three, nil} {
		plan := &Plan{Byzantine: &Byzantine{Policy: LieCollusive, Window: Window{From: 0}, Frac: 0.2, TargetSlice: target}}
		a := NewApplier(plan, 11, part)
		nodes := population(n)
		members := realMembers(a, nodes)
		a.Apply(0, members, nodes)
		slice := plan.Byzantine.Target(part.Len())
		sl := part.Slice(slice)
		lo, hi := members[int(sl.Low*n)].Attr, members[int(sl.High*n)-1].Attr
		liars := cohort(nodes, a.saltByz, plan.Byzantine.Frac)
		if len(liars) == 0 {
			t.Fatal("empty liar cohort")
		}
		for _, id := range liars {
			if lie := nodes[id]; lie < lo || lie > hi {
				t.Errorf("slice %d: liar %d claims %v, outside the slice's range [%v, %v]", slice, id, lie, lo, hi)
			}
		}
	}
}

// TestApplierPollution pins that pollution counts cohort nodes among the
// target slice's claimants before, during and after the lie window.
func TestApplierPollution(t *testing.T) {
	const n = 60
	part := core.MustEqual(5)
	plan := &Plan{Byzantine: &Byzantine{Policy: LieAlwaysTop, Window: Window{From: 5, To: 10}, Frac: 0.3}}
	a := NewApplier(plan, 5, part)
	nodes := population(n)
	target := plan.Byzantine.Target(part.Len())
	// Even IDs claim the target slice, odd ones slice 0.
	claimed, lying := 0, 0
	for id := range nodes {
		if id%2 == 0 {
			claimed++
			if Select(a.saltByz, uint64(id), plan.Byzantine.Frac) {
				lying++
			}
		}
	}
	if lying == 0 || lying == claimed {
		t.Fatalf("degenerate test population: %d liars among %d claimants", lying, claimed)
	}
	want := float64(lying) / float64(claimed)
	for _, c := range []int{0, 5, 10} {
		members := realMembers(a, nodes)
		a.Apply(c, members, nodes)
		got, ok := a.Pollution(len(members), func(i int) (core.ID, int) {
			id := members[i].ID
			if id%2 == 0 {
				return id, target
			}
			return id, 0
		})
		if !ok || got != want {
			t.Errorf("cycle %d: Pollution = %v, %v; want %v, true", c, got, ok, want)
		}
	}
	honest := NewApplier(&Plan{Drift: &Drift{Kind: DriftStep, Frac: 1, Amp: 1}}, 5, part)
	if _, ok := honest.Pollution(1, func(int) (core.ID, int) { return 1, target }); ok {
		t.Error("Pollution ok without a byzantine family")
	}
}
