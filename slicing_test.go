package slicing_test

import (
	"encoding/json"
	"testing"
	"time"

	slicing "github.com/gossipkit/slicing"
)

// The public API must support the README quickstart end to end.
func TestPublicSimulationAPI(t *testing.T) {
	res, err := slicing.Simulate(slicing.SimConfig{
		N: 300, Slices: 10, ViewSize: 10,
		Protocol: slicing.Ranking,
		AttrDist: slicing.UniformDist{Lo: 0, Hi: 1000},
		Seed:     1,
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := res.SDM.At(0)
	if !ok {
		t.Fatal("no initial SDM")
	}
	last, ok := res.SDM.Last()
	if !ok {
		t.Fatal("no final SDM")
	}
	if last.Value >= first {
		t.Errorf("SDM did not improve: %v → %v", first, last.Value)
	}
	if res.FinalN != 300 {
		t.Errorf("FinalN = %d, want 300", res.FinalN)
	}
}

func TestPublicOrderingPolicies(t *testing.T) {
	policies := map[string]slicing.SimConfig{
		"jk":      {Policy: slicing.JK},
		"mod-jk":  {Policy: slicing.ModJK},
		"default": {},
	}
	for name, overlay := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := slicing.SimConfig{
				N: 200, Slices: 5, ViewSize: 10,
				Protocol: slicing.Ordering,
				Policy:   overlay.Policy,
				AttrDist: slicing.ParetoDist{Xm: 1, Alpha: 1.5},
				Seed:     2,
			}
			res, err := slicing.Simulate(cfg, 50)
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages.SwapRequests == 0 {
				t.Error("ordering run exchanged no swaps")
			}
		})
	}
}

func TestPublicPartitions(t *testing.T) {
	part, err := slicing.EqualSlices(4)
	if err != nil {
		t.Fatal(err)
	}
	if part.Len() != 4 {
		t.Errorf("Len = %d, want 4", part.Len())
	}
	custom, err := slicing.CustomSlices(0.8)
	if err != nil {
		t.Fatal(err)
	}
	top := custom.Slice(1)
	if top.Low != 0.8 || top.High != 1 {
		t.Errorf("top slice = %v, want (0.8,1]", top)
	}
	if _, err := slicing.CustomSlices(2.0); err == nil {
		t.Error("invalid boundary accepted")
	}
}

// Churn reaches the public API through a spec: JSON in, SimConfig out.
func TestPublicChurnTypes(t *testing.T) {
	var spec slicing.ScenarioSpec
	if err := json.Unmarshal([]byte(`{"name": "burst", "protocol": "ranking",
		"n": 200, "slices": 5, "viewSize": 10, "cycles": 20, "seed": 3,
		"attr": {"kind": "uniform", "lo": 0, "hi": 100},
		"churn": {"phases": [{"join": 0.01, "leave": 0.01, "cycles": 10}],
			"pattern": {"kind": "correlated", "spread": 5}}}`), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := slicing.Simulate(cfg, spec.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN != 200 {
		t.Errorf("FinalN = %d, want 200 (balanced churn)", res.FinalN)
	}
}

func TestPublicLiveCluster(t *testing.T) {
	part, err := slicing.EqualSlices(3)
	if err != nil {
		t.Fatal(err)
	}
	// Driven mode: the cluster runs on a virtual clock, so the test
	// advances time instead of sleeping against a wall-clock deadline.
	cluster, err := slicing.NewCluster(slicing.ClusterConfig{
		N: 12, Partition: part, ViewSize: 5,
		Protocol: slicing.Ranking,
		Period:   2 * time.Millisecond,
		AttrDist: slicing.UniformDist{Lo: 0, Hi: 100},
		Seed:     4,
		Clock:    slicing.NewVirtualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	for cycles := 0; cluster.MisassignedFraction() > 0.35; cycles++ {
		if cycles > 500 {
			t.Fatalf("cluster stuck at %v misassigned", cluster.MisassignedFraction())
		}
		if err := cluster.Advance(2 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range cluster.Nodes() {
		st := n.Status()
		if !st.Slice.Valid() {
			t.Errorf("node %v reports invalid slice %v", st.ID, st.Slice)
		}
	}
	if cluster.MessageCounts().Total() == 0 {
		t.Error("no traffic on the cluster's internal network")
	}
}

// One spec, two engines, through the public API: the same scenario spec
// executes on both backends and both converge.
func TestPublicScenarioBackends(t *testing.T) {
	sc, err := slicing.LookupScenario("live-convergence")
	if err != nil {
		t.Fatal(err)
	}
	var spec slicing.ScenarioSpec
	for _, s := range sc.Specs {
		if s.Name == "ranking" {
			spec = s.Scaled(0.1)
		}
	}
	spec.Seed = 8
	for _, name := range []string{slicing.BackendSim, slicing.BackendLive} {
		backend, err := slicing.ScenarioBackendByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := backend.Run(spec)
		if err != nil {
			t.Fatalf("%s backend: %v", name, err)
		}
		first := res.SDM.Points[0].Value
		last, _ := res.SDM.Last()
		if last.Value >= first {
			t.Errorf("%s backend did not converge: SDM %v → %v", name, first, last.Value)
		}
	}
	if _, err := slicing.ScenarioBackendByName("nope"); err == nil {
		t.Error("unknown backend name accepted")
	}
}

// The jitter sentinel is reachable from the public surface.
func TestPublicJitterSentinel(t *testing.T) {
	if slicing.JitterNone >= 0 {
		t.Error("JitterNone must be negative (zero means default)")
	}
	if slicing.DefaultJitterFrac <= 0 {
		t.Error("DefaultJitterFrac must be positive")
	}
	part, err := slicing.EqualSlices(2)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := slicing.NewCluster(slicing.ClusterConfig{
		N: 4, Partition: part, ViewSize: 3,
		Protocol:   slicing.Ranking,
		Period:     time.Millisecond,
		JitterFrac: slicing.JitterNone,
		AttrDist:   slicing.UniformDist{Lo: 0, Hi: 10},
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Stop()
}

func TestPublicStats(t *testing.T) {
	k, err := slicing.RequiredSamples(0.05, 0.5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k < 300 || k > 500 {
		t.Errorf("RequiredSamples = %d, want ≈ 385", k)
	}
	bound, err := slicing.SliceDeviationBound(10000, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if bound <= 0 || bound >= 1 {
		t.Errorf("SliceDeviationBound = %v", bound)
	}
	w, err := slicing.MinSliceWidth(10000, 0.2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Errorf("MinSliceWidth = %v", w)
	}
}

func TestPublicEstimators(t *testing.T) {
	c := slicing.NewCounterEstimator()
	c.Observe(true)
	if c.Estimate() != 1 {
		t.Error("counter estimator broken through the facade")
	}
	w, err := slicing.NewWindowEstimator(8)
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(false)
	if w.Estimate() != 0 {
		t.Error("window estimator broken through the facade")
	}
	if _, err := slicing.NewWindowEstimator(0); err == nil {
		t.Error("zero-size window accepted")
	}
}

func TestPublicMeasures(t *testing.T) {
	part, _ := slicing.EqualSlices(2)
	states := []slicing.NodeState{
		{Member: slicing.Member{ID: 1, Attr: 10}, R: 0.2, SliceIndex: 0},
		{Member: slicing.Member{ID: 2, Attr: 20}, R: 0.9, SliceIndex: 1},
	}
	if got := slicing.SDM(states, part); got != 0 {
		t.Errorf("SDM = %v, want 0", got)
	}
	if got := slicing.GDM(states); got != 0 {
		t.Errorf("GDM = %v, want 0", got)
	}
}
