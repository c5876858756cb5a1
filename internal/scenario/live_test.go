package scenario

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/gossipkit/slicing/internal/sim"
)

func TestBackendByName(t *testing.T) {
	for name, want := range map[string]string{"": BackendSim, BackendSim: BackendSim, BackendLive: BackendLive} {
		b, err := BackendByName(name)
		if err != nil {
			t.Fatalf("BackendByName(%q): %v", name, err)
		}
		if b.Name() != want {
			t.Errorf("BackendByName(%q).Name() = %q, want %q", name, b.Name(), want)
		}
	}
	if _, err := BackendByName("peersim"); !errors.Is(err, ErrSpec) {
		t.Errorf("BackendByName(peersim) = %v, want ErrSpec", err)
	}
}

// The acceptance bar of the backend split: the same spec executes on
// both engines and the live SDM converges to within a stated tolerance
// of the simulated series. Ordering gossips against view-resolved
// coordinates live (there is no global oracle), so its floor sits
// slightly above the simulator's — the probe across seeds lands at
// 8–14% of the initial disorder; 20% is the stated tolerance. Ranking
// is selection-insensitive and tracks the simulator within 1%; 5% is
// the stated tolerance.
func TestSimVsLiveConvergence(t *testing.T) {
	sc, err := Lookup("live-convergence")
	if err != nil {
		t.Fatal(err)
	}
	tolerance := map[string]float64{"ordering": 0.20, "ranking": 0.05}
	for _, spec := range sc.Specs {
		tol, ok := tolerance[spec.Name]
		if !ok {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			s := spec.Scaled(0.25)
			s.Seed = 42
			simRes, err := (SimBackend{}).Run(s)
			if err != nil {
				t.Fatal(err)
			}
			liveRes, err := (LiveBackend{}).Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(liveRes.SDM.Points), len(simRes.SDM.Points); got != want {
				t.Fatalf("live recorded %d SDM points, sim %d — series must align", got, want)
			}
			initial := simRes.SDM.Points[0].Value
			simFinal, _ := simRes.SDM.Last()
			liveFinal, _ := liveRes.SDM.Last()
			diff := liveFinal.Value - simFinal.Value
			if diff < 0 {
				diff = -diff
			}
			t.Logf("n=%d cycles=%d: initial %.0f, sim final %.0f, live final %.0f (|diff| %.1f%% of initial, tolerance %.0f%%)",
				s.N, s.Cycles, initial, simFinal.Value, liveFinal.Value, 100*diff/initial, 100*tol)
			if diff > tol*initial {
				t.Errorf("live final SDM %v vs sim %v: |diff| %v exceeds %v (%.0f%% of initial %v)",
					liveFinal.Value, simFinal.Value, diff, tol*initial, 100*tol, initial)
			}
			if liveFinal.Value > initial/2 {
				t.Errorf("live run did not converge: final %v vs initial %v", liveFinal.Value, initial)
			}
		})
	}
}

// Every registry scenario that declares live-backend support runs
// end-to-end on the live backend at scale 0.1, emitting the same result
// shape as the sim backend plus the backend tag. Families with claims
// are left to TestClaims, which runs them live and checks more.
func TestLiveScenariosEndToEnd(t *testing.T) {
	var liveNames []string
	for _, sc := range All() {
		if sc.SupportsBackend(BackendLive) && len(sc.Claims) == 0 {
			liveNames = append(liveNames, sc.Name)
		}
	}
	if len(liveNames) < 3 {
		t.Fatalf("only %d live-capable scenarios registered: %v", len(liveNames), liveNames)
	}
	g := Grid{Scenarios: liveNames, Scale: 0.1, BaseSeed: 5}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		runs[i].Spec.SampleEvery = 5
	}
	r := Runner{Workers: 2, Backend: LiveBackend{}}
	results := r.Sweep(runs, nil)
	for _, res := range results {
		if res.Error != "" {
			t.Errorf("%s/%s: %s", res.Scenario, res.Spec.Name, res.Error)
			continue
		}
		if res.Backend != BackendLive {
			t.Errorf("%s/%s: backend tag %q, want %q", res.Scenario, res.Spec.Name, res.Backend, BackendLive)
		}
		if res.FinalN == 0 {
			t.Errorf("%s/%s: FinalN = 0", res.Scenario, res.Spec.Name)
		}
		if len(res.SDM) == 0 {
			t.Errorf("%s/%s: no SDM series", res.Scenario, res.Spec.Name)
		}
		if res.Messages.Total() == 0 {
			t.Errorf("%s/%s: no traffic delivered", res.Scenario, res.Spec.Name)
		}
		initial, final := res.SDM[0].Value, res.SDM[len(res.SDM)-1].Value
		if final >= initial && initial > 0 {
			t.Errorf("%s/%s: SDM did not decrease (%v -> %v)", res.Scenario, res.Spec.Name, initial, final)
		}
	}
}

// Live and sim results marshal to the same JSON shape, modulo the
// backend tag.
func TestLiveResultJSONShape(t *testing.T) {
	spec := Spec{
		Name: "shape", Protocol: ProtoRanking,
		N: 60, Slices: 3, ViewSize: 6, Cycles: 10, Seed: 9,
		Attr: uniformAttr(), SampleEvery: 2,
	}
	keys := func(backend Backend) map[string]bool {
		run := Run{Index: 0, Scenario: "t", Spec: spec}
		res := Runner{Workers: 1, DisableTiming: true, Backend: backend}.Sweep([]Run{run}, nil)[0]
		if res.Error != "" {
			t.Fatal(res.Error)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]json.RawMessage{}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool, len(m))
		for k := range m {
			set[k] = true
		}
		return set
	}
	simKeys, liveKeys := keys(SimBackend{}), keys(LiveBackend{})
	for k := range simKeys {
		if !liveKeys[k] {
			t.Errorf("live result missing field %q", k)
		}
	}
	for k := range liveKeys {
		if !simKeys[k] {
			t.Errorf("live result has extra field %q", k)
		}
	}
}

// Churn phases execute as real joins and leaves: a one-sided join flood
// grows the live population like it grows the simulated one.
func TestLiveChurnTracksPopulation(t *testing.T) {
	spec := Spec{
		Name: "flood", Protocol: ProtoRanking,
		N: 200, Slices: 4, ViewSize: 8, Cycles: 12, Seed: 3,
		Attr: uniformAttr(),
		Churn: &ChurnSpec{
			Phases:  []ChurnPhase{{Join: 0.02, Cycles: 10}, {}},
			Pattern: PatternSpec{Kind: PatternUniform},
		},
	}
	simRes, err := (SimBackend{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	liveRes, err := (LiveBackend{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.FinalN != simRes.FinalN {
		t.Errorf("live FinalN = %d, sim FinalN = %d — same schedule must grow both equally",
			liveRes.FinalN, simRes.FinalN)
	}
	if liveRes.FinalN <= spec.N {
		t.Errorf("join flood did not grow the cluster: FinalN %d ≤ N %d", liveRes.FinalN, spec.N)
	}
	last, _ := liveRes.Size.Last()
	if int(last.Value) != liveRes.FinalN {
		t.Errorf("size series end %v disagrees with FinalN %d", last.Value, liveRes.FinalN)
	}
}

// Correlated mass departure shrinks the live population on schedule.
func TestLiveChurnDeparture(t *testing.T) {
	spec := Spec{
		Name: "exodus", Protocol: ProtoRanking,
		N: 200, Slices: 4, ViewSize: 8, Cycles: 8, Seed: 4,
		Attr: uniformAttr(),
		Churn: &ChurnSpec{
			Phases:  []ChurnPhase{{Cycles: 3}, {Leave: 0.25, Cycles: 1}, {}},
			Pattern: PatternSpec{Kind: PatternCorrelated, Spread: 10},
		},
	}
	liveRes, err := (LiveBackend{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.FinalN != 150 {
		t.Errorf("FinalN = %d after 25%% departure from 200, want 150", liveRes.FinalN)
	}
}

// Simulation-only knobs are rejected with clear errors instead of being
// silently ignored.
func TestLiveBackendRejectsSimOnlyKnobs(t *testing.T) {
	base := Spec{
		Name: "knobs", Protocol: ProtoRanking,
		N: 50, Slices: 2, ViewSize: 5, Cycles: 5, Attr: uniformAttr(),
	}
	tests := []struct {
		name   string
		mutate func(*Spec)
		frag   string
	}{
		{"uniform oracle", func(s *Spec) { s.Membership = MemUniform }, "uniform-oracle"},
		{"concurrency", func(s *Spec) { s.Protocol = ProtoOrdering; s.Concurrency = 0.5 }, "concurrent by construction"},
		{"stale payloads", func(s *Spec) { s.Protocol = ProtoOrdering; s.StalePayloads = true }, "concurrent by construction"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base
			tt.mutate(&s)
			_, err := (LiveBackend{}).Run(s)
			if err == nil || !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("LiveBackend.Run = %v, want error containing %q", err, tt.frag)
			}
		})
	}
}

func TestLiveSpecValidation(t *testing.T) {
	neg, one := -0.1, 1.0
	tests := []struct {
		name string
		live LiveSpec
	}{
		{"negative period", LiveSpec{PeriodMS: -1}},
		{"negative jitter", LiveSpec{JitterFrac: &neg}},
		{"jitter at or above 1", LiveSpec{JitterFrac: &one}},
		{"inverted latency", LiveSpec{MinLatencyMS: 5, MaxLatencyMS: 1}},
		{"loss too high", LiveSpec{Loss: 1}},
		{"negative shards", LiveSpec{Shards: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := Spec{
				Name: "bad-live", Protocol: ProtoRanking,
				N: 50, Slices: 2, ViewSize: 5, Cycles: 5, Attr: uniformAttr(),
				Live: &tt.live,
			}
			if err := s.Validate(); !errors.Is(err, ErrSpec) {
				t.Errorf("Validate = %v, want ErrSpec", err)
			}
		})
	}
}

// Live tuning survives the JSON round trip, including the explicit-zero
// jitter (which must stay distinguishable from "absent").
func TestLiveSpecJSONRoundTrip(t *testing.T) {
	zero := 0.0
	spec := Spec{
		Name: "rt", Protocol: ProtoRanking,
		N: 100, Slices: 4, ViewSize: 8, Cycles: 20, Seed: 17,
		Attr: uniformAttr(),
		Live: &LiveSpec{
			PeriodMS:     5,
			JitterFrac:   &zero,
			MinLatencyMS: 0.5, MaxLatencyMS: 2,
			Loss:   0.05,
			Shards: 3,
		},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip mutated the spec:\n got %+v\nwant %+v", back, spec)
	}
	if back.Live.JitterFrac == nil || *back.Live.JitterFrac != 0 {
		t.Error("explicit zero jitter lost in the round trip")
	}
	// A spec without Live round-trips to a nil Live (back-compat: old
	// JSON files parse unchanged).
	spec.Live = nil
	raw, err = json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "live") {
		t.Errorf("nil Live leaked into JSON: %s", raw)
	}
	var back2 Spec
	if err := json.Unmarshal(raw, &back2); err != nil {
		t.Fatal(err)
	}
	if back2.Live != nil {
		t.Error("nil Live did not survive the round trip")
	}
}

// The real-time mode paces on the wall clock and still records the full
// series.
func TestLiveBackendRealTime(t *testing.T) {
	spec := Spec{
		Name: "wall", Protocol: ProtoRanking,
		N: 16, Slices: 2, ViewSize: 5, Cycles: 5, Seed: 2,
		Attr: uniformAttr(),
		Live: &LiveSpec{PeriodMS: 1, RealTime: true},
	}
	res, err := (LiveBackend{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.SDM.Points); got != spec.Cycles+1 {
		t.Errorf("recorded %d SDM points, want %d", got, spec.Cycles+1)
	}
	if res.Messages.Total() == 0 {
		t.Error("real-time run delivered no traffic")
	}
}

var _ Backend = SimBackend{}
var _ Backend = LiveBackend{}
var _ = sim.Result{} // both backends speak the simulator's result type

// Live ordering runs record the unsuccessful-swap series the simulator
// records, so ordering results compare field for field.
func TestLiveOrderingRecordsUnsuccessfulPct(t *testing.T) {
	spec := Spec{
		Name: "unsucc", Protocol: ProtoOrdering, Policy: PolicyModJK,
		N: 100, Slices: 4, ViewSize: 8, Cycles: 15, Seed: 6,
		Attr: uniformAttr(),
	}
	liveRes, err := (LiveBackend{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(liveRes.UnsuccessfulPct.Points); got != spec.Cycles+1 {
		t.Errorf("live ordering recorded %d unsuccessful%% points, want %d", got, spec.Cycles+1)
	}
	// Ranking runs leave it empty on both engines.
	spec.Protocol, spec.Policy = ProtoRanking, ""
	liveRes, err = (LiveBackend{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(liveRes.UnsuccessfulPct.Points); got != 0 {
		t.Errorf("live ranking recorded %d unsuccessful%% points, want 0", got)
	}
}
