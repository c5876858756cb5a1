package ranking

import (
	"math"
	"math/rand"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

func newTestNode(t *testing.T, id core.ID, attr core.Attr, slices int, est Estimator) *Node {
	t.Helper()
	if est == nil {
		est = NewCounter()
	}
	n, err := NewNode(Config{
		ID: id, Attr: attr, Partition: core.MustEqual(slices),
		Estimator: est, View: view.MustNew(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNodeValidation(t *testing.T) {
	part := core.MustEqual(4)
	v := view.MustNew(4)
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid", Config{ID: 1, Partition: part, Estimator: NewCounter(), View: v}, false},
		{"nil view", Config{ID: 1, Partition: part, Estimator: NewCounter()}, true},
		{"nil estimator", Config{ID: 1, Partition: part, View: v}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNode(tt.cfg); (err != nil) != tt.wantErr {
				t.Errorf("NewNode error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestHandleUpdatesEstimate(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	rng := rand.New(rand.NewSource(1))
	// Lower attribute → estimate rises.
	n.Handle(1, proto.RankUpdate{Attr: 10}, rng)
	if got := n.Estimate(); got != 1 {
		t.Errorf("estimate after one lower = %v, want 1", got)
	}
	// Higher attribute → estimate halves.
	n.Handle(2, proto.RankUpdate{Attr: 90}, rng)
	if got := n.Estimate(); got != 0.5 {
		t.Errorf("estimate = %v, want 0.5", got)
	}
	if got := n.Samples(); got != 2 {
		t.Errorf("Samples = %d, want 2 (one per update)", got)
	}
}

func TestHandleTieBreaksById(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	rng := rand.New(rand.NewSource(1))
	// Same attribute, smaller id → counts as lower.
	n.Handle(3, proto.RankUpdate{Attr: 50}, rng)
	if got := n.Estimate(); got != 1 {
		t.Errorf("estimate = %v, want 1 (id 3 < id 10 on tie)", got)
	}
	// Same attribute, larger id → counts as higher.
	n.Handle(30, proto.RankUpdate{Attr: 50}, rng)
	if got := n.Estimate(); got != 0.5 {
		t.Errorf("estimate = %v, want 0.5", got)
	}
}

func TestHandleIgnoresForeignMessages(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	rng := rand.New(rand.NewSource(1))
	if out := n.Handle(1, proto.SwapRequest{R: 0.5, Attr: 1}, rng); out != nil {
		t.Errorf("Handle(SwapRequest) = %v, want nil", out)
	}
	if n.Samples() != 0 {
		t.Error("foreign message fed the estimator")
	}
}

func TestTickScansView(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	n.View().Add(view.Entry{ID: 1, Attr: 10, R: 0.2})
	n.View().Add(view.Entry{ID: 2, Attr: 90, R: 0.8})
	rng := rand.New(rand.NewSource(1))
	n.Tick(rng)
	// Two observations: one lower, one higher → estimate 0.5.
	if got := n.Estimate(); got != 0.5 {
		t.Errorf("estimate after view scan = %v, want 0.5", got)
	}
	if got := n.Samples(); got != 2 {
		t.Errorf("Samples after view scan = %d, want 2", got)
	}
}

func TestTickTargetsBoundaryClosestNeighbor(t *testing.T) {
	// Partition (0,.5](.5,1]: boundary at 0.5. Neighbor 2's estimate
	// (0.48) is closest to the boundary; it must receive the first UPD.
	n := newTestNode(t, 10, 50, 2, nil)
	n.View().Add(view.Entry{ID: 1, Attr: 10, R: 0.05})
	n.View().Add(view.Entry{ID: 2, Attr: 60, R: 0.48})
	n.View().Add(view.Entry{ID: 3, Attr: 90, R: 0.95})
	rng := rand.New(rand.NewSource(1))
	envs := n.Tick(rng)
	if len(envs) != 2 {
		t.Fatalf("Tick returned %d envelopes, want 2 (j1 and j2)", len(envs))
	}
	if envs[0].To != 2 {
		t.Errorf("j1 = %v, want 2 (closest to boundary)", envs[0].To)
	}
	for _, env := range envs {
		upd, ok := env.Msg.(proto.RankUpdate)
		if !ok {
			t.Fatalf("message type %T, want RankUpdate", env.Msg)
		}
		if upd.Attr != 50 {
			t.Errorf("UPD carries attr %v, want the sender's 50", upd.Attr)
		}
	}
}

func TestTickUsesStateReaderForBoundaryDistance(t *testing.T) {
	// The view records stale estimates; the state reader gives fresh
	// ones placing neighbor 3 at the boundary.
	n := newTestNode(t, 10, 50, 2, nil)
	n.View().Add(view.Entry{ID: 2, Attr: 60, R: 0.49}) // stale: near boundary
	n.View().Add(view.Entry{ID: 3, Attr: 90, R: 0.99}) // stale: far
	state := proto.MapReader{2: 0.9, 3: 0.52}
	j1, _, ok := n.TickTargets(state, rand.New(rand.NewSource(1)), new(Scratch))
	if !ok || j1 != 3 {
		t.Errorf("j1 = %v (ok=%v), want 3 (fresh estimate nearest boundary)", j1, ok)
	}
}

func TestTickEmptyView(t *testing.T) {
	n := newTestNode(t, 10, 50, 2, nil)
	if envs := n.Tick(rand.New(rand.NewSource(1))); len(envs) != 0 {
		t.Errorf("Tick on empty view sent %d messages", len(envs))
	}
}

func TestSliceIndexFollowsEstimate(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	rng := rand.New(rand.NewSource(1))
	if got := n.SliceIndex(); got != 0 {
		t.Errorf("slice with no evidence = %d, want 0 (clamped)", got)
	}
	// Three lower, one higher → estimate 0.75 → boundary case: slice
	// index 2 ((0.5,0.75] contains 0.75).
	for _, a := range []core.Attr{10, 20, 30, 90} {
		n.Handle(core.ID(a), proto.RankUpdate{Attr: a}, rng)
	}
	if got := n.Estimate(); got != 0.75 {
		t.Fatalf("estimate = %v, want 0.75", got)
	}
	if got := n.SliceIndex(); got != 2 {
		t.Errorf("SliceIndex = %d, want 2", got)
	}
}

func TestSelfEntryCarriesEstimate(t *testing.T) {
	n := newTestNode(t, 10, 50, 4, nil)
	rng := rand.New(rand.NewSource(1))
	n.Handle(1, proto.RankUpdate{Attr: 10}, rng)
	e := n.SelfEntry()
	if e.ID != 10 || e.Attr != 50 || e.R != 1 || e.Age != 0 {
		t.Errorf("SelfEntry = %+v", e)
	}
}

// Convergence: a node receiving uniform samples from a static population
// converges to its true normalized rank (§5.2).
func TestEstimateConvergesToTrueRank(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(33))
	attrs := make([]core.Attr, n)
	for i := range attrs {
		attrs[i] = core.Attr(rng.NormFloat64() * 10)
	}
	members := make([]core.Member, n)
	for i := range members {
		members[i] = core.Member{ID: core.ID(i), Attr: attrs[i]}
	}
	trueRank := core.NormalizedRanks(members)

	subject := newTestNode(t, 0, attrs[0], 10, nil)
	for i := 0; i < 20000; i++ {
		j := 1 + rng.Intn(n-1)
		subject.Handle(core.ID(j), proto.RankUpdate{Attr: attrs[j]}, rng)
	}
	want := trueRank[0]
	// The estimator samples the population without self, so its target
	// is within O(1/n) of the true normalized rank.
	if got := subject.Estimate(); math.Abs(got-want) > 0.02 {
		t.Errorf("estimate = %v, true normalized rank = %v", got, want)
	}
}

// With complete information (every other node observed exactly once) the
// rank estimate is exact: ℓ/g = (α_i − 1)/(n − 1).
func TestEstimateExactOnFullInformation(t *testing.T) {
	attrs := []core.Attr{5, 10, 20, 40, 80}
	for i, a := range attrs {
		subject := newTestNode(t, core.ID(i), a, 5, nil)
		rng := rand.New(rand.NewSource(7))
		for j, aj := range attrs {
			if j == i {
				continue
			}
			subject.Handle(core.ID(j), proto.RankUpdate{Attr: aj}, rng)
		}
		want := float64(i) / float64(len(attrs)-1)
		if got := subject.Estimate(); math.Abs(got-want) > 1e-12 {
			t.Errorf("node %d estimate = %v, want %v", i, got, want)
		}
	}
}
