package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/sim"
)

// validSpec returns a minimal runnable spec; tests mutate one field at a
// time to probe validation.
func validSpec() Spec {
	return Spec{
		Name: "t", Protocol: ProtoRanking,
		N: 100, Slices: 10, ViewSize: 5, Cycles: 10,
		Attr: DistSpec{Kind: "uniform", Lo: 0, Hi: 1},
	}
}

func TestValidateAcceptsValidSpec(t *testing.T) {
	if _, err := validSpec().Config(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateFailures(t *testing.T) {
	cases := map[string]func(*Spec){
		"missing name":        func(s *Spec) { s.Name = "" },
		"zero n":              func(s *Spec) { s.N = 0 },
		"zero view":           func(s *Spec) { s.ViewSize = 0 },
		"zero cycles":         func(s *Spec) { s.Cycles = 0 },
		"no slices":           func(s *Spec) { s.Slices = 0 },
		"both partitions":     func(s *Spec) { s.SliceBounds = []float64{0.5} },
		"bad bounds":          func(s *Spec) { s.Slices = 0; s.SliceBounds = []float64{1.5} },
		"bad protocol":        func(s *Spec) { s.Protocol = "gossip" },
		"policy on ranking":   func(s *Spec) { s.Policy = PolicyModJK },
		"bad policy":          func(s *Spec) { s.Protocol = ProtoOrdering; s.Policy = "greedy" },
		"random policy":       func(s *Spec) { s.Protocol = ProtoOrdering; s.Policy = "random" },
		"bad membership":      func(s *Spec) { s.Membership = "scamp" },
		"newscast membership": func(s *Spec) { s.Membership = "newscast" },
		"bad estimator":       func(s *Spec) { s.Estimator = "ewma" },
		"window without W":    func(s *Spec) { s.Estimator = EstWindow },
		"window above max":    func(s *Spec) { s.Estimator = EstWindow; s.WindowSize = maxWindow + 1 },
		"view above n":        func(s *Spec) { s.ViewSize = s.N + 1 },
		"slices above n":      func(s *Spec) { s.Slices = s.N + 1 },
		"conc below range":    func(s *Spec) { s.Concurrency = -0.1 },
		"negative workers":    func(s *Spec) { s.SimWorkers = -1 },
		"conc above range":    func(s *Spec) { s.Concurrency = 1.1 },
		"negative cadence":    func(s *Spec) { s.SampleEvery = -1 },
		"bad dist kind":       func(s *Spec) { s.Attr.Kind = "cauchy" },
		"uniform lo==hi":      func(s *Spec) { s.Attr = DistSpec{Kind: "uniform", Lo: 1, Hi: 1} },
		"pareto bad xm":       func(s *Spec) { s.Attr = DistSpec{Kind: "pareto", Xm: 0, Alpha: 1} },
		"exponential mean 0":  func(s *Spec) { s.Attr = DistSpec{Kind: "exponential"} },
		"normal stddev 0":     func(s *Spec) { s.Attr = DistSpec{Kind: "normal", Mean: 1} },
		"lognormal sigma 0":   func(s *Spec) { s.Attr = DistSpec{Kind: "lognormal"} },
		"zipf no support":     func(s *Spec) { s.Attr = DistSpec{Kind: "zipf", S: 1} },
		"empty mixture":       func(s *Spec) { s.Attr = DistSpec{Kind: "mixture"} },
		"mixture bad weight": func(s *Spec) {
			s.Attr = DistSpec{Kind: "mixture", Components: []WeightedDist{
				{Weight: 0, Dist: DistSpec{Kind: "uniform", Lo: 0, Hi: 1}},
			}}
		},
		"churn no phases": func(s *Spec) {
			s.Churn = &ChurnSpec{Pattern: PatternSpec{Kind: PatternUniform}}
		},
		"churn negative rate": func(s *Spec) {
			s.Churn = &ChurnSpec{
				Phases:  []ChurnPhase{{Join: -0.1}},
				Pattern: PatternSpec{Kind: PatternUniform},
			}
		},
		"churn open phase not last": func(s *Spec) {
			s.Churn = &ChurnSpec{
				Phases:  []ChurnPhase{{Join: 0.1}, {Leave: 0.1, Cycles: 5}},
				Pattern: PatternSpec{Kind: PatternUniform},
			}
		},
		"churn bad pattern": func(s *Spec) {
			s.Churn = &ChurnSpec{
				Phases:  []ChurnPhase{{Join: 0.1, Cycles: 5}},
				Pattern: PatternSpec{Kind: "adversarial"},
			}
		},
	}
	for name, mutate := range cases {
		spec := validSpec()
		mutate(&spec)
		if _, err := spec.Config(); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: Config() = %v, want ErrSpec", name, err)
		}
	}
}

func TestConfigTranslation(t *testing.T) {
	spec := Spec{
		Name: "full", Protocol: ProtoOrdering, Policy: PolicyJK,
		N: 500, Slices: 20, ViewSize: 12, Cycles: 50,
		Membership: MemUniform, Concurrency: 0.5, StalePayloads: true,
		RecordGDM: true, Seed: 11, SimWorkers: 6,
		Attr: DistSpec{Kind: "pareto", Xm: 10, Alpha: 1.5},
		Churn: &ChurnSpec{
			Phases:  []ChurnPhase{{Join: 0.01, Leave: 0.01, Cycles: 10}},
			Pattern: PatternSpec{Kind: PatternCorrelated, Spread: 5},
		},
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol != sim.Ordering || cfg.Membership != sim.UniformOracle {
		t.Errorf("protocol/membership = %v/%v", cfg.Protocol, cfg.Membership)
	}
	if cfg.N != 500 || cfg.Slices != 20 || cfg.ViewSize != 12 || cfg.Seed != 11 {
		t.Errorf("size fields mistranslated: %+v", cfg)
	}
	if !cfg.StalePayloads || !cfg.RecordGDM || cfg.Concurrency != 0.5 {
		t.Errorf("flag fields mistranslated: %+v", cfg)
	}
	if cfg.Workers != 6 {
		t.Errorf("SimWorkers mistranslated: Workers = %d, want 6", cfg.Workers)
	}
	if cfg.Schedule == nil || cfg.Pattern == nil {
		t.Fatal("churn not materialized")
	}
	if ev := cfg.Schedule.At(0, 1000); ev.Join != 10 || ev.Leave != 10 {
		t.Errorf("churn phase event = %+v, want join=leave=10", ev)
	}
	if ev := cfg.Schedule.At(10, 1000); ev.Join != 0 || ev.Leave != 0 {
		t.Errorf("churn after phase end = %+v, want zero", ev)
	}
}

func TestConfigSingleOpenPhaseAvoidsCompose(t *testing.T) {
	spec := validSpec()
	spec.Churn = &ChurnSpec{
		Phases:  []ChurnPhase{{Join: 0.001, Leave: 0.001, Every: 10}},
		Pattern: PatternSpec{Kind: PatternCorrelated},
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Schedule.(churn.Flat); !ok {
		t.Errorf("single open-ended phase built %T, want churn.Flat", cfg.Schedule)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, sc := range All() {
		for _, spec := range sc.Specs {
			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", sc.Name, spec.Name, err)
			}
			var back Spec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", sc.Name, spec.Name, err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Errorf("%s/%s: round-trip mismatch:\n got %+v\nwant %+v",
					sc.Name, spec.Name, back, spec)
			}
			// A round-tripped spec must stay valid and build the same config.
			if _, err := back.Config(); err != nil {
				t.Errorf("%s/%s: round-tripped spec invalid: %v", sc.Name, spec.Name, err)
			}
		}
	}
}

func TestJSONRoundTripPreservesMarshaling(t *testing.T) {
	// Byte-level stability: marshal(unmarshal(marshal(s))) == marshal(s).
	spec := validSpec()
	spec.Churn = flashCrowdChurn()
	first, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("re-marshal differs:\n%s\nvs\n%s", first, second)
	}
}

func TestScaled(t *testing.T) {
	spec := Spec{
		Name: "s", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 10000,
		N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000,
		Attr:      DistSpec{Kind: "uniform", Lo: 0, Hi: 1},
		Churn:     &ChurnSpec{Phases: []ChurnPhase{{Join: 0.001, Cycles: 200}}, Pattern: PatternSpec{Kind: PatternUniform}},
		MinCycles: 200, MinSlices: 10,
	}
	scaled := spec.Scaled(0.03)
	if scaled.N != 300 {
		t.Errorf("N = %d, want 300", scaled.N)
	}
	if scaled.Cycles != 200 { // floored at MinCycles
		t.Errorf("Cycles = %d, want floor 200", scaled.Cycles)
	}
	if scaled.Slices != 10 { // floored at MinSlices
		t.Errorf("Slices = %d, want floor 10", scaled.Slices)
	}
	if scaled.WindowSize != 500 { // floored at minWindow
		t.Errorf("WindowSize = %d, want floor 500", scaled.WindowSize)
	}
	// Phases shrink by the run's effective ratio (200/1000 after the
	// cycle floor), keeping the phase structure proportional to the run.
	if got := scaled.Churn.Phases[0].Cycles; got != 40 {
		t.Errorf("phase cycles = %d, want 200×0.2 = 40", got)
	}
	// The original is untouched (churn is deep-copied).
	if spec.Churn.Phases[0].Cycles != 200 {
		t.Error("Scaled mutated the receiver's churn phases")
	}
	// Scale 1 is the identity.
	if !reflect.DeepEqual(spec.Scaled(1), spec) {
		t.Error("Scaled(1) is not the identity")
	}
}

func TestScaledFloorNeverInflates(t *testing.T) {
	spec := validSpec() // N=100 with default floor 100
	spec.N = 40
	if got := spec.Scaled(0.5).N; got != 40 {
		t.Errorf("floor inflated N to %d, want 40 (min(v, floor))", got)
	}
}

// SimWorkers must JSON round-trip (including the omitempty zero) and
// must never change results: it maps to the engine's worker-count
// invariance contract, so a spec with SimWorkers set sweeps to the same
// bytes as the same spec without it.
func TestSimWorkersRoundTripAndInvariance(t *testing.T) {
	spec := validSpec()
	spec.SimWorkers = 3
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"simWorkers":3`) {
		t.Errorf("simWorkers not marshaled: %s", data)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, spec)
	}
	plain := validSpec()
	if data, _ := json.Marshal(plain); strings.Contains(string(data), "simWorkers") {
		t.Errorf("zero SimWorkers should be omitted: %s", data)
	}

	serial, err := SimBackend{}.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SimBackend{}.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.SDM.Points) != len(parallel.SDM.Points) {
		t.Fatalf("series lengths differ: %d vs %d", len(serial.SDM.Points), len(parallel.SDM.Points))
	}
	for i := range serial.SDM.Points {
		if serial.SDM.Points[i] != parallel.SDM.Points[i] {
			t.Fatalf("SimWorkers changed results at point %d: %+v vs %+v",
				i, serial.SDM.Points[i], parallel.SDM.Points[i])
		}
	}
	if serial.Messages != parallel.Messages {
		t.Fatalf("SimWorkers changed message counts: %+v vs %+v", serial.Messages, parallel.Messages)
	}
}

// FuzzSpec decodes whole specs, seeded with every spec of every registry
// family. A spec whose Config accepts it must re-encode to the same bytes
// and, when it is small (N ≤ 64, Cycles ≤ 5), run on the simulator
// without an error. Larger specs are skipped, not shrunk: a clamp would
// run a spec nobody wrote.
func FuzzSpec(f *testing.F) {
	for _, sc := range All() {
		for _, spec := range sc.Specs {
			data, err := json.Marshal(spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if _, err := spec.Config(); err != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("an accepted spec does not encode: %v", err)
		}
		var back Spec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("an accepted spec does not decode its own encoding: %v", err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is no fixed point:\n%s\n%s", enc, again)
		}
		if spec.N > 64 || spec.Cycles > 5 {
			return
		}
		if _, err := (SimBackend{}).Run(spec); err != nil {
			t.Fatalf("an accepted spec failed to run: %v", err)
		}
	})
}
