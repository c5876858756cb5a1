package scenario

import (
	"errors"
	"fmt"

	"github.com/gossipkit/slicing/internal/fault"
)

// Scenario is a named family of specs reproducing one figure (or one
// extension workload): each spec is one curve of the plot.
type Scenario struct {
	// Name is the registry key (e.g. "fig6-burst").
	Name string `json:"name"`
	// Figure names the paper figure the family reproduces; empty for
	// extension scenarios.
	Figure string `json:"figure,omitempty"`
	// Description summarizes the workload and what to look for.
	Description string `json:"description"`
	// Backends lists the execution backends the family is declared to
	// run on ("sim", "live"); empty means sim-only. Live-annotated
	// scenarios are exercised end-to-end on the live backend in CI.
	Backends []string `json:"backends,omitempty"`
	// Tags label the family for filtering (`slicebench list/sweep
	// -family <tag>`); e.g. every fault-injection family carries
	// "chaos".
	Tags []string `json:"tags,omitempty"`
	// Specs hold one entry per curve, at paper scale.
	Specs []Spec `json:"specs"`
	// Claims state what the family's curves must show (see Check);
	// `slicebench run` prints a verdict per claim.
	Claims []Claim `json:"claims,omitempty"`
}

// SupportsBackend reports whether the family declares the backend. An
// empty Backends list means simulator-only.
func (sc Scenario) SupportsBackend(name string) bool {
	if name == BackendSim && len(sc.Backends) == 0 {
		return true
	}
	for _, b := range sc.Backends {
		if b == name {
			return true
		}
	}
	return false
}

// bothBackends annotates a family as runnable on either engine.
func bothBackends() []string { return []string{BackendSim, BackendLive} }

// HasTag reports whether the family carries the tag (or is named by
// it: a family name always matches itself).
func (sc Scenario) HasTag(tag string) bool {
	if sc.Name == tag {
		return true
	}
	for _, t := range sc.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// uniformAttr is the default attribute law of the figure scenarios: the
// protocols are distribution-free, and a uniform spread keeps true
// slices trivially computable.
func uniformAttr() DistSpec { return DistSpec{Kind: "uniform", Lo: 0, Hi: 1000} }

// ErrUnknown is returned for unregistered scenario names.
var ErrUnknown = errors.New("scenario: unknown scenario")

// registry holds the built-in scenarios in presentation order.
var registry = []Scenario{
	{
		Name:        "fig4-disorder",
		Figure:      "Fig. 4(a)",
		Description: "mod-JK global vs slice disorder: GDM reaches 0 while SDM floors above it",
		Specs: []Spec{{
			Name: "mod-jk", Protocol: ProtoOrdering, Policy: PolicyModJK,
			N: 10000, Slices: 100, ViewSize: 20, Cycles: 200, RecordGDM: true,
			Attr: uniformAttr(), MinCycles: 60, MinSlices: 10,
		}},
		// A residual adjacent transposition can survive a short scaled
		// run, so GDM must collapse ≥10⁴× rather than reach exactly 0.
		Claims: []Claim{
			claim(lastOf("mod-jk", "gdm"), "<=", 1e-4, firstOf("mod-jk", "gdm")),
			claim(lastOf("mod-jk", "sdm"), ">", 1, Stat{}),
		},
	},
	{
		Name:        "fig4-policies",
		Figure:      "Fig. 4(b)",
		Description: "JK vs mod-JK convergence over 10 slices: mod-JK is faster to the same floor",
		Specs: []Spec{
			{Name: "jk", Protocol: ProtoOrdering, Policy: PolicyJK,
				N: 10000, Slices: 10, ViewSize: 20, Cycles: 60, Attr: uniformAttr(), MinCycles: 30},
			{Name: "mod-jk", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 10000, Slices: 10, ViewSize: 20, Cycles: 60, Attr: uniformAttr(), MinCycles: 30},
		},
		// mod-JK's area under the SDM curve is no larger than JK's, up to
		// small-scale noise.
		Claims:   []Claim{claim(sumOf("mod-jk", "sdm"), "<=", 1.05, sumOf("jk", "sdm"))},
		Backends: bothBackends(),
	},
	{
		Name:        "fig4-concurrency",
		Figure:      "Fig. 4(c)",
		Description: "unsuccessful swaps under half and full concurrency, JK vs mod-JK",
		Specs: []Spec{
			{Name: "jk-half", Protocol: ProtoOrdering, Policy: PolicyJK, Concurrency: 0.5,
				N: 10000, Slices: 10, ViewSize: 20, Cycles: 100, Attr: uniformAttr(), MinCycles: 100},
			{Name: "jk-full", Protocol: ProtoOrdering, Policy: PolicyJK, Concurrency: 1,
				N: 10000, Slices: 10, ViewSize: 20, Cycles: 100, Attr: uniformAttr(), MinCycles: 100},
			{Name: "mod-jk-half", Protocol: ProtoOrdering, Policy: PolicyModJK, Concurrency: 0.5,
				N: 10000, Slices: 10, ViewSize: 20, Cycles: 100, Attr: uniformAttr(), MinCycles: 100},
			{Name: "mod-jk-full", Protocol: ProtoOrdering, Policy: PolicyModJK, Concurrency: 1,
				N: 10000, Slices: 10, ViewSize: 20, Cycles: 100, Attr: uniformAttr(), MinCycles: 100},
		},
		Claims: []Claim{
			claim(sumOf("jk-full", "unsuccessful%"), ">=", 1, sumOf("jk-half", "unsuccessful%")),
			claim(sumOf("mod-jk-full", "unsuccessful%"), ">", 1, Stat{}),
		},
	},
	{
		Name:        "fig4-atomicity",
		Figure:      "Fig. 4(d)",
		Description: "mod-JK convergence with atomic vs fully concurrent exchanges",
		Specs: []Spec{
			{Name: "no-concurrency", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 10000, Slices: 100, ViewSize: 20, Cycles: 100, Attr: uniformAttr(), MinSlices: 10},
			{Name: "full-concurrency", Protocol: ProtoOrdering, Policy: PolicyModJK, Concurrency: 1,
				N: 10000, Slices: 100, ViewSize: 20, Cycles: 100, Attr: uniformAttr(), MinSlices: 10},
		},
		Claims: []Claim{claim(lastOf("full-concurrency", "sdm"), "<", 1, firstOf("full-concurrency", "sdm"))},
	},
	{
		Name:        "fig6-static",
		Figure:      "Fig. 6(a)",
		Description: "ordering vs ranking in a static system: ranking ends below the ordering floor",
		Specs: []Spec{
			// MinCycles 400: under the engine's synchronized gossip rounds
			// information travels one hop per cycle, so the ranking curve
			// needs more cycles than the old serial walk to cross the
			// ordering floor at toy scales (the paper's own Fig. 6(a) runs
			// far longer than these floors).
			{Name: "ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				MinCycles: 400, MinSlices: 10},
			{Name: "ranking", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				MinCycles: 400, MinSlices: 10},
		},
		Claims:   []Claim{claim(lastOf("ranking", "sdm"), "<", 1, lastOf("ordering", "sdm"))},
		Backends: bothBackends(),
	},
	{
		Name:        "fig6-sampler",
		Figure:      "Fig. 6(b)",
		Description: "ranking over the Cyclon variant vs an idealized uniform sampler: curves overlap",
		Specs: []Spec{
			{Name: "sdm-uniform", Protocol: ProtoRanking, Membership: MemUniform,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				MinCycles: 200, MinSlices: 10},
			{Name: "sdm-views", Protocol: ProtoRanking, Membership: MemCyclon,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				MinCycles: 200, MinSlices: 10},
		},
		Claims: []Claim{
			claim(lastOf("sdm-views", "sdm"), ">=", 0.3, lastOf("sdm-uniform", "sdm")),
			claim(lastOf("sdm-views", "sdm"), "<=", 3, lastOf("sdm-uniform", "sdm")),
		},
	},
	{
		Name:        "fig6-burst",
		Figure:      "Fig. 6(c)",
		Description: "correlated churn burst (0.1%/cycle for 200 cycles): ranking recovers, ordering stays stuck",
		Specs: []Spec{
			{Name: "jk", Protocol: ProtoOrdering, Policy: PolicyJK,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				Churn: &ChurnSpec{
					Phases:  []ChurnPhase{{Join: 0.001, Leave: 0.001, Cycles: 200}},
					Pattern: PatternSpec{Kind: PatternCorrelated, Spread: 10},
				},
				MinCycles: 300, MinSlices: 10},
			{Name: "ranking", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				Churn: &ChurnSpec{
					Phases:  []ChurnPhase{{Join: 0.001, Leave: 0.001, Cycles: 200}},
					Pattern: PatternSpec{Kind: PatternCorrelated, Spread: 10},
				},
				MinCycles: 300, MinSlices: 10},
		},
		Claims: []Claim{claim(lastOf("ranking", "sdm"), "<", 1, lastOf("jk", "sdm"))},
	},
	{
		Name:        "fig6-steady",
		Figure:      "Fig. 6(d)",
		Description: "low steady correlated churn (0.1% every 10 cycles): only the sliding window resists",
		Specs: []Spec{
			{Name: "ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				Churn:     steadyChurn(),
				MinCycles: 400, MinSlices: 10},
			{Name: "ranking", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				Churn:     steadyChurn(),
				MinCycles: 400, MinSlices: 10},
			{Name: "sliding-window", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 10000,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				Churn:     steadyChurn(),
				MinCycles: 400, MinSlices: 10},
		},
		Claims: []Claim{
			claim(lastOf("ranking", "sdm"), "<", 1, lastOf("ordering", "sdm")),
			claim(lastOf("sliding-window", "sdm"), "<=", 1.5, lastOf("ranking", "sdm")),
		},
		Backends: bothBackends(),
	},
	{
		Name:        "heavytail",
		Description: "extension: Pareto(α=1.2) attributes — rank estimation is distribution-free",
		Specs: []Spec{
			{Name: "sdm-simulated", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000,
				Attr:      DistSpec{Kind: "pareto", Xm: 10, Alpha: 1.2},
				MinCycles: 200, MinSlices: 10},
			{Name: "sdm-ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000,
				Attr:      DistSpec{Kind: "pareto", Xm: 10, Alpha: 1.2},
				MinCycles: 200, MinSlices: 10},
		},
		Claims:   []Claim{claim(lastOf("sdm-simulated", "sdm"), "<=", 0.5, firstOf("sdm-simulated", "sdm"))},
		Backends: bothBackends(),
	},
	{
		Name:        "bimodal",
		Description: "extension: two-mode capability mixture vs uniform baseline — curves must track",
		Specs: []Spec{
			{Name: "sdm-bimodal", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000,
				Attr: DistSpec{Kind: "mixture", Components: []WeightedDist{
					{Weight: 0.5, Dist: DistSpec{Kind: "normal", Mean: 50, Stddev: 5}},
					{Weight: 0.5, Dist: DistSpec{Kind: "normal", Mean: 500, Stddev: 20}},
				}},
				MinCycles: 200, MinSlices: 10},
			{Name: "sdm-uniform", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 10, Cycles: 1000, Attr: uniformAttr(),
				MinCycles: 200, MinSlices: 10},
		},
		// The +1 keeps the tracking ratio meaningful near the zero floor.
		Claims: []Claim{
			claim(lastOf("sdm-bimodal", "sdm"), "<=", 0.5, firstOf("sdm-bimodal", "sdm")),
			claim(plusOne(lastOf("sdm-bimodal", "sdm")), "<=", 3, plusOne(lastOf("sdm-uniform", "sdm"))),
			claim(plusOne(lastOf("sdm-bimodal", "sdm")), ">=", 1.0/3, plusOne(lastOf("sdm-uniform", "sdm"))),
		},
		Backends: bothBackends(),
	},
	{
		Name:        "flash-crowd",
		Description: "extension: a quiet system hit by a 5%/cycle join flood for 20 cycles, then quiet again — the sliding window re-converges faster than the counter",
		Specs: []Spec{
			{Name: "counter", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 20, Cycles: 600, Attr: uniformAttr(),
				Churn:     flashCrowdChurn(),
				MinCycles: 150, MinSlices: 10},
			{Name: "sliding-window", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 10000,
				N: 10000, Slices: 100, ViewSize: 20, Cycles: 600, Attr: uniformAttr(),
				Churn:     flashCrowdChurn(),
				MinCycles: 150, MinSlices: 10},
		},
	},
	{
		Name:        "mass-departure",
		Description: "extension: 25% of the lowest-attribute nodes vanish at once (correlated mass exit) — rank estimates must re-center",
		Specs: []Spec{
			{Name: "ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 10000, Slices: 100, ViewSize: 20, Cycles: 600, Attr: uniformAttr(),
				Churn:     massDepartureChurn(),
				MinCycles: 150, MinSlices: 10},
			{Name: "ranking", Protocol: ProtoRanking,
				N: 10000, Slices: 100, ViewSize: 20, Cycles: 600, Attr: uniformAttr(),
				Churn:     massDepartureChurn(),
				MinCycles: 150, MinSlices: 10},
			{Name: "sliding-window", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 10000,
				N: 10000, Slices: 100, ViewSize: 20, Cycles: 600, Attr: uniformAttr(),
				Churn:     massDepartureChurn(),
				MinCycles: 150, MinSlices: 10},
		},
	},
	{
		Name:        "slice-oscillation",
		Description: "extension: alternating join/leave waves oscillate the population across the top-decile boundary — nodes near the boundary flap between slices",
		Specs: []Spec{
			{Name: "counter", Protocol: ProtoRanking, SliceBounds: []float64{0.9},
				N: 10000, ViewSize: 20, Cycles: 400, Attr: uniformAttr(),
				Churn:     oscillationChurn(),
				MinCycles: 100},
			{Name: "sliding-window", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 10000,
				SliceBounds: []float64{0.9},
				N:           10000, ViewSize: 20, Cycles: 400, Attr: uniformAttr(),
				Churn:     oscillationChurn(),
				MinCycles: 100},
		},
	},
	scaleScenario(10_000, 50),
	scaleScenario(50_000, 30),
	scaleScenario(100_000, 20),
	scaleScenario(1_000_000, 10),
	{
		Name: "live-convergence",
		Description: "sim-vs-live: the same specs run on the cycle simulator and on a live driven cluster — " +
			"the live SDM trajectory must track the simulated one",
		Backends: bothBackends(),
		Specs: []Spec{
			{Name: "ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 120, Attr: uniformAttr(),
				MinCycles: 60},
			{Name: "ranking", Protocol: ProtoRanking,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 120, Attr: uniformAttr(),
				MinCycles: 60},
			{Name: "ranking-churn", Protocol: ProtoRanking,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 120, Attr: uniformAttr(),
				Churn: &ChurnSpec{
					Phases:  []ChurnPhase{{Join: 0.005, Leave: 0.005}},
					Pattern: PatternSpec{Kind: PatternUniform},
				},
				MinCycles: 60},
			{Name: "ranking-lossy", Protocol: ProtoRanking,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 120, Attr: uniformAttr(),
				Live:      &LiveSpec{MinLatencyMS: 1, MaxLatencyMS: 5, Loss: 0.1},
				MinCycles: 60},
		},
	},
	{
		Name: "live-scale-10k",
		Description: "live-backend throughput at n=10,000: a timed convergence run on the sharded scheduler " +
			"(the goroutine-per-node runtime this replaced topped out far below)",
		Backends: bothBackends(),
		Specs: []Spec{{
			Name: "ranking", Protocol: ProtoRanking,
			N: 10_000, Slices: 100, ViewSize: 20, Cycles: 20, Attr: uniformAttr(),
			MinCycles: 10, MinSlices: 10,
		}},
	},
	{
		Name: "serving",
		Description: "the query plane's reference clusters: warmed-up populations a serving endpoint answers " +
			"from (ranking, ordering, and ranking under churn at n=1,000)",
		Backends: bothBackends(),
		Specs: []Spec{
			{Name: "ranking-1k", Protocol: ProtoRanking,
				N: 1000, Slices: 10, ViewSize: 20, Cycles: 150, Seed: 42,
				Attr: uniformAttr(), MinCycles: 60},
			{Name: "ordering-1k", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 1000, Slices: 10, ViewSize: 20, Cycles: 150, Seed: 42,
				Attr: uniformAttr(), MinCycles: 60},
			{Name: "ranking-churn", Protocol: ProtoRanking,
				N: 1000, Slices: 10, ViewSize: 20, Cycles: 150, Seed: 42,
				Attr: uniformAttr(),
				Churn: &ChurnSpec{
					Phases:  []ChurnPhase{{Join: 0.002, Leave: 0.002}},
					Pattern: PatternSpec{Kind: PatternUniform},
				},
				MinCycles: 60},
		},
	},
	{
		Name:        "quickstart",
		Description: "the README walk-through: 2000 nodes, 10 slices, ranking protocol",
		Backends:    bothBackends(),
		Specs: []Spec{{
			Name: "ranking", Protocol: ProtoRanking,
			N: 2000, Slices: 10, ViewSize: 20, Cycles: 150, Seed: 42,
			Attr: uniformAttr(),
		}},
	},
	{
		Name:        "churnstorm",
		Description: "uptime-correlated steady churn over exponential session times (examples/churnstorm)",
		Specs: []Spec{
			{Name: "ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 1000, Slices: 10, ViewSize: 15, Cycles: 600, Seed: 99,
				Attr:      DistSpec{Kind: "exponential", Mean: 3600},
				Churn:     uptimeChurn(),
				MinCycles: 150},
			{Name: "ranking", Protocol: ProtoRanking,
				N: 1000, Slices: 10, ViewSize: 15, Cycles: 600, Seed: 99,
				Attr:      DistSpec{Kind: "exponential", Mean: 3600},
				Churn:     uptimeChurn(),
				MinCycles: 150},
			{Name: "sliding-window", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 3000,
				N: 1000, Slices: 10, ViewSize: 15, Cycles: 600, Seed: 99,
				Attr:      DistSpec{Kind: "exponential", Mean: 3600},
				Churn:     uptimeChurn(),
				MinCycles: 150},
		},
	},
	{
		Name:        "superpeers",
		Description: "the paper's motivating workload: Pareto bandwidth, top 10% form the super-peer slice (examples/resourceallocation)",
		Specs: []Spec{{
			Name: "ranking", Protocol: ProtoRanking, SliceBounds: []float64{0.9},
			N: 300, ViewSize: 15, Cycles: 200, Seed: 7,
			Attr: DistSpec{Kind: "pareto", Xm: 10, Alpha: 1.5},
			MinN: 50,
		}},
	},
	{
		Name:        "livecluster",
		Description: "the 16-node TCP demo's parameters, runnable in simulation (examples/livecluster)",
		Backends:    bothBackends(),
		Specs: []Spec{{
			Name: "ranking", Protocol: ProtoRanking,
			N: 16, Slices: 4, ViewSize: 6, Cycles: 80, Seed: 1,
			Attr: uniformAttr(), MinN: 16, MinCycles: 80,
		}},
	},
	{
		Name: "chaos-drift",
		Description: "fault plane: a 30% cohort's attributes step far above the range mid-run — " +
			"disorder spikes when the drift lands, then the estimators re-converge onto the new truth",
		Backends: bothBackends(),
		Tags:     []string{"chaos"},
		Specs: []Spec{
			{Name: "window", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 5000,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr:      uniformAttr(),
				Faults:    &fault.Plan{Drift: &fault.Drift{Kind: fault.DriftStep, Window: fault.Window{From: 80, To: 200}, Frac: 0.3, Amp: 2000}},
				MinCycles: 120},
			{Name: "counter", Protocol: ProtoRanking,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr:      uniformAttr(),
				Faults:    &fault.Plan{Drift: &fault.Drift{Kind: fault.DriftStep, Window: fault.Window{From: 80, To: 200}, Frac: 0.3, Amp: 2000}},
				MinCycles: 120},
		},
	},
	{
		Name: "chaos-byzantine",
		Description: "fault plane: 10% of nodes misreport their attribute for a window, then stop — " +
			"the target slice's pollution rises while the lie holds and decays after the heal",
		Backends: bothBackends(),
		Tags:     []string{"chaos"},
		Specs: []Spec{
			{Name: "always-top", Protocol: ProtoRanking,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr:      uniformAttr(),
				Faults:    &fault.Plan{Byzantine: &fault.Byzantine{Policy: fault.LieAlwaysTop, Window: fault.Window{From: 60, To: 160}, Frac: 0.1}},
				MinCycles: 120},
			{Name: "collusive", Protocol: ProtoRanking,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr:      uniformAttr(),
				Faults:    &fault.Plan{Byzantine: &fault.Byzantine{Policy: fault.LieCollusive, Window: fault.Window{From: 60, To: 160}, Frac: 0.1}},
				MinCycles: 120},
		},
	},
	{
		Name: "chaos-partition",
		Description: "fault plane: the overlay splits into two seeded groups for a window, then heals — " +
			"cross-group traffic is black-holed, per-side disorder grows, and the kept view entries re-merge the overlay",
		Backends: bothBackends(),
		Tags:     []string{"chaos"},
		Specs: []Spec{
			{Name: "ranking", Protocol: ProtoRanking, Estimator: EstWindow, WindowSize: 5000,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr:      uniformAttr(),
				Faults:    &fault.Plan{Partition: &fault.Partition{Window: fault.Window{From: 60, To: 150}, Groups: 2}},
				MinCycles: 120},
			{Name: "ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr:      uniformAttr(),
				Faults:    &fault.Plan{Partition: &fault.Partition{Window: fault.Window{From: 60, To: 150}, Groups: 2}},
				MinCycles: 120},
		},
	},
	{
		Name: "chaos-messages",
		Description: "fault plane: a loss burst with duplication and delay spikes hits mid-run — " +
			"gossip degrades gracefully and convergence resumes when the window closes",
		Backends: bothBackends(),
		Tags:     []string{"chaos"},
		Specs: []Spec{
			{Name: "ranking", Protocol: ProtoRanking,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr: uniformAttr(),
				Faults: &fault.Plan{Chaos: []fault.Chaos{
					{Window: fault.Window{From: 60, To: 160}, Loss: 0.25, Dup: 0.1, Delay: 0.1, DelayMS: 5},
				}},
				MinCycles: 120},
			{Name: "ordering", Protocol: ProtoOrdering, Policy: PolicyModJK,
				N: 2000, Slices: 10, ViewSize: 20, Cycles: 240, Seed: 42,
				Attr: uniformAttr(),
				Faults: &fault.Plan{Chaos: []fault.Chaos{
					{Window: fault.Window{From: 60, To: 160}, Loss: 0.25, Dup: 0.1, Delay: 0.1, DelayMS: 5},
				}},
				MinCycles: 120},
		},
	},
}

// scaleScenario builds one member of the scale-* family: the
// engine-throughput workloads that push the simulator past the paper's
// N=10,000 ceiling (§4.5 stops there; the arena-based engine core is
// benchmarked to 100k+). Each family runs both protocols, static and
// under 0.1%/cycle uniform churn, with short fixed cycle counts — the
// point is cycles/sec as a function of N, not convergence. They are
// what `make profile` runs; the measured N=1M and N=100k throughput
// numbers come from benchmark/, which builds its own specs.
func scaleScenario(n, cycles int) Scenario {
	name := fmt.Sprintf("scale-%dk", n/1000)
	if n >= 1_000_000 {
		name = fmt.Sprintf("scale-%dm", n/1_000_000)
	}
	churn := &ChurnSpec{
		Phases:  []ChurnPhase{{Join: 0.001, Leave: 0.001}},
		Pattern: PatternSpec{Kind: PatternUniform},
	}
	spec := func(label, protocol string, churned bool) Spec {
		s := Spec{
			Name: label, Protocol: protocol,
			N: n, Slices: 100, ViewSize: 20, Cycles: cycles,
			Attr:      uniformAttr(),
			MinCycles: 10, MinSlices: 10,
		}
		if protocol == ProtoOrdering {
			s.Policy = PolicyModJK
		}
		if churned {
			s.Churn = churn
		}
		return s
	}
	return Scenario{
		Name: name,
		Description: fmt.Sprintf(
			"engine throughput at n=%d: both protocols, static and under 0.1%%/cycle uniform churn", n),
		Specs: []Spec{
			spec("ordering-static", ProtoOrdering, false),
			spec("ordering-churn", ProtoOrdering, true),
			spec("ranking-static", ProtoRanking, false),
			spec("ranking-churn", ProtoRanking, true),
		},
	}
}

// steadyChurn is Fig. 6(d)'s regime: 0.1% every 10 cycles, correlated.
func steadyChurn() *ChurnSpec {
	return &ChurnSpec{
		Phases:  []ChurnPhase{{Join: 0.001, Leave: 0.001, Every: 10}},
		Pattern: PatternSpec{Kind: PatternCorrelated, Spread: 10},
	}
}

// flashCrowdChurn is a quiet period, a 20-cycle 5%/cycle join flood,
// then quiet for the rest of the run.
func flashCrowdChurn() *ChurnSpec {
	return &ChurnSpec{
		Phases: []ChurnPhase{
			{Cycles: 100},
			{Join: 0.05, Cycles: 20},
			{},
		},
		Pattern: PatternSpec{Kind: PatternUniform},
	}
}

// massDepartureChurn drops a quarter of the population in one cycle,
// correlated with the attribute (the lowest values leave).
func massDepartureChurn() *ChurnSpec {
	return &ChurnSpec{
		Phases: []ChurnPhase{
			{Cycles: 150},
			{Leave: 0.25, Cycles: 1},
			{},
		},
		Pattern: PatternSpec{Kind: PatternCorrelated, Spread: 10},
	}
}

// oscillationChurn alternates 2%/cycle join and leave waves three times,
// swinging the population (and every rank) across the slice boundary.
func oscillationChurn() *ChurnSpec {
	phases := make([]ChurnPhase, 0, 7)
	for i := 0; i < 3; i++ {
		phases = append(phases,
			ChurnPhase{Join: 0.02, Cycles: 25},
			ChurnPhase{Leave: 0.02, Cycles: 25},
		)
	}
	phases = append(phases, ChurnPhase{})
	return &ChurnSpec{
		Phases:  phases,
		Pattern: PatternSpec{Kind: PatternUniform},
	}
}

// uptimeChurn is the churnstorm example's regime: Fig. 6(d)'s rate with
// a wider correlated spread (uptime gaps).
func uptimeChurn() *ChurnSpec {
	return &ChurnSpec{
		Phases:  []ChurnPhase{{Join: 0.001, Leave: 0.001, Every: 10}},
		Pattern: PatternSpec{Kind: PatternCorrelated, Spread: 20},
	}
}

// Names returns the registered scenario names in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, sc := range registry {
		names[i] = sc.Name
	}
	return names
}

// clone deep-copies a scenario so callers can mutate the returned specs
// (reseeding, rescaling) without corrupting the process-wide catalog.
func (sc Scenario) clone() Scenario {
	specs := make([]Spec, len(sc.Specs))
	for i, spec := range sc.Specs {
		if spec.Churn != nil {
			c := *spec.Churn
			c.Phases = append([]ChurnPhase(nil), c.Phases...)
			spec.Churn = &c
		}
		if spec.Live != nil {
			l := *spec.Live
			if l.JitterFrac != nil {
				j := *l.JitterFrac
				l.JitterFrac = &j
			}
			spec.Live = &l
		}
		spec.SliceBounds = append([]float64(nil), spec.SliceBounds...)
		spec.Attr.Components = append([]WeightedDist(nil), spec.Attr.Components...)
		spec.Faults = clonePlan(spec.Faults)
		specs[i] = spec
	}
	sc.Specs = specs
	sc.Backends = append([]string(nil), sc.Backends...)
	sc.Tags = append([]string(nil), sc.Tags...)
	sc.Claims = append([]Claim(nil), sc.Claims...)
	return sc
}

// All returns every registered scenario, deep-copied.
func All() []Scenario {
	out := make([]Scenario, len(registry))
	for i, sc := range registry {
		out[i] = sc.clone()
	}
	return out
}

// Lookup finds a scenario by name, deep-copied.
func Lookup(name string) (Scenario, error) {
	for _, sc := range registry {
		if sc.Name == name {
			return sc.clone(), nil
		}
	}
	return Scenario{}, fmt.Errorf("%w: %q", ErrUnknown, name)
}
