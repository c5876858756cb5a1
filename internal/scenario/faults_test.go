package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/sim"
)

// fullPlan exercises every family and every optional field at once,
// including the TargetSlice pointer.
func fullPlan() *fault.Plan {
	target := 3
	return &fault.Plan{
		Drift:     &fault.Drift{Kind: fault.DriftOscillate, Window: fault.Window{From: 10, To: 50}, Frac: 0.2, Amp: 5, Period: 8},
		Byzantine: &fault.Byzantine{Policy: fault.LieCollusive, Window: fault.Window{From: 15, To: 45}, Frac: 0.1, TargetSlice: &target},
		Partition: &fault.Partition{Window: fault.Window{From: 20, To: 40}, Groups: 3},
		Chaos:     []fault.Chaos{{Window: fault.Window{From: 5, To: 55}, Loss: 0.3, Dup: 0.1, Delay: 0.2, DelayMS: 7}},
	}
}

// faultsDoc is a faults block that sets every field: the wire format a
// spec file is written in. targetSlice 0 must survive (an omitempty int
// would drop it), and the byzantine window leaves until out.
const faultsDoc = `{"drift":{"kind":"oscillate","from":10,"until":50,"frac":0.2,"amp":5,"period":8,"every":2},` +
	`"byzantine":{"policy":"collusive","from":15,"frac":0.1,"targetSlice":0},` +
	`"partition":{"from":20,"until":40,"groups":3},` +
	`"chaos":[{"from":5,"until":55,"loss":0.3,"dup":0.1,"delay":0.2,"delayMS":7}]}`

func TestFaultsSpecJSONRoundTrip(t *testing.T) {
	var doc fault.Plan
	if err := json.Unmarshal([]byte(faultsDoc), &doc); err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(&doc); err != nil || string(got) != faultsDoc {
		t.Errorf("faults block re-encodes as\n%s (err %v), want\n%s", got, err, faultsDoc)
	}
	for _, bad := range []string{`{"drift":{"kind":"brownian","frac":0.5,"amp":1}}`, `{"byzantine":{"policy":"sybil","frac":0.1}}`} {
		if err := json.Unmarshal([]byte(bad), &doc); err == nil {
			t.Errorf("%s decoded", bad)
		}
	}
	spec := validSpec()
	spec.Cycles = 60
	spec.Faults = fullPlan()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, spec)
	}
	if _, err := back.Config(); err != nil {
		t.Errorf("round-tripped faulted spec invalid: %v", err)
	}
	// A faultless spec must not grow a faults key.
	plain, err := json.Marshal(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(plain, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["faults"]; ok {
		t.Errorf("zero Faults should be omitted: %s", plain)
	}
}

func TestFaultsSpecValidation(t *testing.T) {
	cases := map[string]func(*fault.Plan){
		"unknown drift kind":  func(f *fault.Plan) { f.Drift.Kind = 9 },
		"drift frac zero":     func(f *fault.Plan) { f.Drift.Frac = 0 },
		"drift frac over 1":   func(f *fault.Plan) { f.Drift.Frac = 1.5 },
		"drift amp zero":      func(f *fault.Plan) { f.Drift.Amp = 0 },
		"oscillate no period": func(f *fault.Plan) { f.Drift.Period = 0 },
		"drift window order":  func(f *fault.Plan) { f.Drift.From = 50; f.Drift.To = 10 },
		"unknown lie policy":  func(f *fault.Plan) { f.Byzantine.Policy = 9 },
		"byz frac zero":       func(f *fault.Plan) { f.Byzantine.Frac = 0 },
		"one group":           func(f *fault.Plan) { f.Partition.Groups = 1 },
		"loss over 1":         func(f *fault.Plan) { f.Chaos[0].Loss = 1.5 },
		"negative dup":        func(f *fault.Plan) { f.Chaos[0].Dup = -0.1 },
		"negative delayMS":    func(f *fault.Plan) { f.Chaos[0].DelayMS = -3 },
		// 1e13 ms wraps time.Duration negative on the live backend.
		"delayMS overflow": func(f *fault.Plan) { f.Chaos[0].DelayMS = 10_000_000_000_000 },
	}
	for name, mutate := range cases {
		spec := validSpec()
		spec.Cycles = 60
		spec.Faults = fullPlan()
		mutate(spec.Faults)
		if _, err := spec.Config(); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: Config() = %v, want ErrSpec", name, err)
		}
	}
}

func TestFaultsScaledWindows(t *testing.T) {
	spec := Spec{
		Name: "s", Protocol: ProtoRanking,
		N: 1000, Slices: 10, ViewSize: 10, Cycles: 1000,
		Attr:   DistSpec{Kind: "uniform", Lo: 0, Hi: 1},
		Faults: fullPlan(),
	}
	scaled := spec.Scaled(0.1) // Cycles 1000 → 100, effective ratio 0.1
	if scaled.Cycles != 100 {
		t.Fatalf("Cycles = %d, want 100", scaled.Cycles)
	}
	if w := scaled.Faults.Drift.Window; w != (fault.Window{From: 1, To: 5}) {
		t.Errorf("drift window = %+v, want [1,5)", w)
	}
	if w := scaled.Faults.Partition.Window; w != (fault.Window{From: 2, To: 4}) {
		t.Errorf("partition window = %+v, want [2,4)", w)
	}
	// Scaled windows must stay valid (at least one open cycle, ordered).
	if _, err := scaled.Config(); err != nil {
		t.Errorf("scaled faulted spec no longer builds: %v", err)
	}
	// An open-ended window stays open.
	open := spec
	open.Faults = &fault.Plan{Drift: &fault.Drift{Kind: fault.DriftStep, Window: fault.Window{From: 50}, Frac: 0.5, Amp: 1}}
	if got := open.Scaled(0.1).Faults.Drift.To; got != 0 {
		t.Errorf("open window gained an end: until = %d", got)
	}
	// The receiver's faults block is untouched (deep copy).
	if spec.Faults.Drift.From != 10 {
		t.Error("Scaled mutated the receiver's fault windows")
	}
	// Scale 1 is the identity on the faults block too.
	if !reflect.DeepEqual(spec.Scaled(1).Faults, spec.Faults) {
		t.Error("Scaled(1) changed the faults block")
	}
}

// TestChaosRecoveryGates pins the convergence-recovery contract of the
// adversarial families:
//
//   - chaos-partition, sim: disorder spikes while the partition is open
//     and re-converges within recoveryBudget cycles of the heal — back
//     below recoveredFactor of its at-heal level.
//   - chaos-partition, live: disorder must at least stop diverging and
//     begin re-merging by the deadline. The live runtime's membership
//     times out unanswered peers (§3.3: crash and partition look alike),
//     so a long partition evicts most cross-group view entries and the
//     re-merge rides the few surviving links — slower than the sim,
//     whose stale view entries survive the window (see README
//     "Robustness").
//   - chaos-byzantine (f = 10%, always-top), both backends: top-slice
//     pollution stays ≤ pollutionBound while the lie window is open and
//     decays once it closes.
func TestChaosRecoveryGates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run recovery gate")
	}
	const (
		scale           = 0.1
		recoveryBudget  = 40  // cycles after heal the run gets to re-merge
		recoveredFactor = 0.6 // sim must drop below this fraction of at-heal SDM
		pollutionBound  = 0.7 // f=0.1 of N claiming top: at most ~2/3 of the slice
	)
	backends := []Backend{SimBackend{}, LiveBackend{}}
	// The live trajectory still depends on the scheduler's shard count
	// (default GOMAXPROCS), and the partition leg's margin is one SDM
	// unit: pin one shard so the gate reads the same run on every box.
	// The sim backend ignores the live block.
	oneShard := func(s Spec) Spec {
		live := LiveSpec{}
		if s.Live != nil {
			live = *s.Live
		}
		live.Shards = 1
		s.Live = &live
		return s
	}

	partSC, err := Lookup("chaos-partition")
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range backends {
		spec := oneShard(partSC.Specs[0].Scaled(scale))
		res, err := be.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		heal := spec.Faults.Partition.To
		atHeal, ok := res.SDM.At(heal)
		if !ok {
			t.Fatalf("%s: no SDM sample at heal cycle %d", be.Name(), heal)
		}
		recovered, ok := res.SDM.At(heal + recoveryBudget)
		if !ok {
			t.Fatalf("%s: no SDM sample at recovery deadline %d", be.Name(), heal+recoveryBudget)
		}
		if res.Faults.PartitionDrops == 0 {
			t.Errorf("%s: partition window black-holed nothing", be.Name())
		}
		gate := atHeal
		if be.Name() == BackendSim {
			gate = atHeal * recoveredFactor
		}
		if recovered > gate {
			t.Errorf("%s: no re-merge within %d cycles of heal: SDM %.4f at heal, %.4f at deadline (gate: ≤ %.4f)",
				be.Name(), recoveryBudget, atHeal, recovered, gate)
		}
	}

	byzSC, err := Lookup("chaos-byzantine")
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range backends {
		spec := oneShard(byzSC.Specs[0].Scaled(scale))
		res, err := be.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if res.Faults.LiesInstalled == 0 {
			t.Fatalf("%s: byzantine window installed no lies", be.Name())
		}
		win := spec.Faults.Byzantine
		peak := 0.0
		for _, p := range res.Pollution.Points {
			if p.Cycle >= win.From && p.Cycle < win.To && p.Value > peak {
				peak = p.Value
			}
		}
		if peak == 0 {
			t.Errorf("%s: pollution never rose during the lie window", be.Name())
		}
		if peak > pollutionBound {
			t.Errorf("%s: pollution peaked at %.3f with f=%.2f, gate is ≤ %.2f",
				be.Name(), peak, win.Frac, pollutionBound)
		}
		during, _ := res.Pollution.At(win.To - 1)
		final, ok := res.Pollution.Last()
		if !ok {
			t.Fatalf("%s: no pollution samples", be.Name())
		}
		if final.Value >= during && during > 0 {
			t.Errorf("%s: pollution did not decay after the window: %.3f during, %.3f final",
				be.Name(), during, final.Value)
		}
	}
}

// TestDriftSameOnBothEngines pins that attribute drift is one function
// of the seed: stepped through a walk-drift window, every node moves by
// the same amount on the simulator and on the live runtime.
func TestDriftSameOnBothEngines(t *testing.T) {
	spec := Spec{
		Name: "drift", Protocol: ProtoRanking,
		N: 200, Slices: 10, ViewSize: 10, Cycles: 12, Seed: 7,
		Attr:   DistSpec{Kind: "uniform", Lo: 0, Hi: 1000},
		Faults: &fault.Plan{Drift: &fault.Drift{Kind: fault.DriftWalk, Window: fault.Window{From: 2, To: 10}, Frac: 0.25, Amp: 40}},
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := MaterializeLiveWith(spec, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Stop()
	simAttrs := func() map[core.ID]core.Attr {
		m := make(map[core.ID]core.Attr)
		for _, st := range e.States() {
			m[st.Member.ID] = st.Member.Attr
		}
		return m
	}
	liveAttrs := func() map[core.ID]core.Attr {
		m := make(map[core.ID]core.Attr)
		for _, n := range lc.Cluster.Nodes() {
			m[n.ID()] = n.SelfEntry().Attr
		}
		return m
	}
	sim0, live0 := simAttrs(), liveAttrs()
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < spec.Cycles; c++ {
		e.Step()
		if err := lc.Step(c); err != nil {
			t.Fatal(err)
		}
	}
	sim1, live1 := simAttrs(), liveAttrs()
	if len(sim1) != len(live1) {
		t.Fatalf("populations differ: sim %d, live %d", len(sim1), len(live1))
	}
	drifted, mismatched := 0, 0
	for id, a := range sim1 {
		b, ok := live1[id]
		if !ok {
			t.Fatalf("node %d is live in the sim only", id)
		}
		ds, dl := float64(a-sim0[id]), float64(b-live0[id])
		if ds != 0 {
			drifted++
		}
		if math.Abs(ds-dl) > 1e-9 {
			mismatched++
		}
	}
	if drifted == 0 {
		t.Fatal("no node drifted")
	}
	if mismatched > 0 {
		t.Errorf("%d of %d drifting nodes moved by different amounts on sim and live", mismatched, drifted)
	}
}

// TestChaosLossRateOnBothEngines pins that chaos drops messages at the
// plan's Loss on both engines: under an always-open loss-only window,
// with no churn, partition or transport loss, every send meets the
// chaos verdict and is either dropped or delivered, so ChaosDrops ÷
// (delivered + ChaosDrops) must sit within the binomial spread of Loss.
// A simulated view reply rides its request's verdict, so it is not a
// send there; live it is. The simulator runs at one and three workers,
// live at one shard.
func TestChaosLossRateOnBothEngines(t *testing.T) {
	const loss = 0.2
	spec := Spec{
		Name: "chaos-rate", Protocol: ProtoRanking,
		N: 200, Slices: 10, ViewSize: 10, Cycles: 40, Seed: 5,
		Attr:   DistSpec{Kind: "uniform", Lo: 0, Hi: 1000},
		Faults: &fault.Plan{Chaos: []fault.Chaos{{Loss: loss}}},
		Live:   &LiveSpec{Shards: 1},
	}
	check := func(name string, res *sim.Result, delivered uint64) {
		t.Helper()
		drops := res.Faults.ChaosDrops
		if res.Messages.Dropped != drops {
			t.Fatalf("%s: %d drops, %d of them chaos: some send missed the verdict", name, res.Messages.Dropped, drops)
		}
		sends := float64(delivered + drops)
		got := float64(drops) / sends
		sigma := math.Sqrt(loss * (1 - loss) / sends)
		if math.Abs(got-loss) > 4*sigma {
			t.Errorf("%s: chaos dropped %.4f of %.0f sends, want %.2f ± %.4f (4σ)", name, got, sends, loss, 4*sigma)
		}
	}
	for _, workers := range []int{1, 3} {
		s := spec
		s.SimWorkers = workers
		res, err := SimBackend{}.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("sim/workers=%d", workers), res, res.Messages.Total()-res.Messages.ViewReplies)
	}
	res, err := LiveBackend{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	check("live", res, res.Messages.Total())
}

// FuzzFaultsSpec feeds arbitrary JSON to the faults block: decoding and
// Config must never panic, and a plan Config accepts must run on both
// backends.
func FuzzFaultsSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p fault.Plan
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		spec := Spec{
			Name: "fuzz", Protocol: ProtoRanking,
			N: 16, Slices: 4, ViewSize: 5, Cycles: 8, Seed: 1,
			Attr:   DistSpec{Kind: "uniform", Lo: 0, Hi: 100},
			Faults: &p,
			Live:   &LiveSpec{Shards: 1},
		}
		if _, err := spec.Config(); err != nil {
			return
		}
		for _, be := range []Backend{SimBackend{}, LiveBackend{}} {
			if _, err := be.Run(spec); err != nil {
				t.Fatalf("%s: an accepted faults block failed to run: %v", be.Name(), err)
			}
		}
	})
}
