package main

import (
	"fmt"
	"math"

	"github.com/gossipkit/slicing/internal/scenario"
)

type kind int

const (
	kindSim kind = iota
	kindLive
	kindServe
)

// workload is one set of inputs the benchmark runs. The spec is a
// literal, not a registry lookup, so the registry can change without
// moving the benchmark.
type workload struct {
	name string
	why  string
	kind kind
	spec scenario.Spec
	// warm is the number of untimed cycles before the timed window (for
	// serve: the cycles the cluster gossips before it is queried).
	warm int
	// rate converts --seconds into timed cycles: timed = rate·seconds,
	// rounded, at least minTimed. The cycle count — not the wall clock —
	// bounds the window so that every run at one --seconds value does
	// the same simulated work and the fingerprint is comparable. The
	// rates make the window last about --seconds on the 2-core builder
	// box.
	rate     float64
	minTimed int
}

// Serve workload shape: gossip steps once per gossipEvery of wall time
// while clients query; a share closedShare of --seconds is the closed
// loop (phase A), the rest the open loop (phase B) at openRate.
const (
	serveConns   = 2
	openRate     = 16000 // requests/s in phase B
	closedShare  = 0.4
	gossipEveryS = 0.1
	shareSlice   = 0.85
	shareTopK    = 0.10 // the rest is /snapshot
	topKFrac     = 0.1
	attrLo       = 0.0
	attrHi       = 1000.0
)

func baseSpec(name, protocol string, n int) scenario.Spec {
	return scenario.Spec{
		Name:       name,
		Protocol:   protocol,
		N:          n,
		Slices:     100,
		ViewSize:   20,
		Cycles:     1, // unused: the benchmark steps the engines itself
		Membership: scenario.MemCyclon,
		Attr:       scenario.DistSpec{Kind: "uniform", Lo: attrLo, Hi: attrHi},
		// Pinned: worker count is a throughput dial, and the benchmark
		// measures one core's worth of engine.
		SimWorkers: 1,
	}
}

// liveTuning pins Shards=1: the live trajectory depends on the shard
// count until ROADMAP item 1 lands, and at one shard message counts and
// SDM repeat exactly.
func liveTuning() *scenario.LiveSpec {
	return &scenario.LiveSpec{PeriodMS: 10, MinLatencyMS: 1, MaxLatencyMS: 5, Loss: 0.02, Shards: 1}
}

// workloads returns the four workloads with seeds derived from the one
// seed argument.
func workloads(seed int64) []workload {
	ord1m := baseSpec("sim-ordering-1m", scenario.ProtoOrdering, 1_000_000)
	ord1m.Policy = scenario.PolicyModJK

	churn := baseSpec("sim-ranking-churn-100k", scenario.ProtoRanking, 100_000)
	churn.Estimator = scenario.EstCounter
	churn.Churn = &scenario.ChurnSpec{
		Phases:  []scenario.ChurnPhase{{Join: 0.001, Leave: 0.001}},
		Pattern: scenario.PatternSpec{Kind: scenario.PatternUniform},
	}

	live := baseSpec("live-ordering-10k", scenario.ProtoOrdering, 10_000)
	live.Policy = scenario.PolicyModJK
	live.Live = liveTuning()

	serve := baseSpec("serve-mixed-1k", scenario.ProtoRanking, 1_000)
	serve.Live = liveTuning()

	ws := []workload{
		{
			name: ord1m.Name, kind: kindSim, spec: ord1m, warm: 1, rate: 0.3, minTimed: 6,
			why: "sim engine far beyond the last-level cache: arena merge and the mod-JK rank kernel; byte-diet and merge work must show here",
		},
		{
			name: churn.Name, kind: kindSim, spec: churn, warm: 5, rate: 3, minTimed: 12,
			why: "same engine cache-resident with churn and the ranking kernel live; instruction-level work shows here, footprint-only work should not",
		},
		{
			name: live.Name, kind: kindLive, spec: live, warm: 10, rate: 8, minTimed: 20,
			why: "live runtime: timer heap, net draw and the envelope path through membership.Cyclon and ordering.Tick/Handle; sim-only changes predict no move",
		},
		{
			name: serve.Name, kind: kindServe, spec: serve, warm: 100, rate: 1 / gossipEveryS, minTimed: 20,
			why: "query plane over HTTP while gossip runs: estimate build, encode and HTTP do the work and the engines almost none",
		},
	}
	for i := range ws {
		ws[i].spec.Seed = scenario.DeriveSeed(seed, "benchmark", ws[i].name, 0, 0)
	}
	return ws
}

func findWorkload(name string, seed int64) (workload, error) {
	for _, w := range workloads(seed) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timedCycles is the length of the timed window for a --seconds value.
// A traced run shortens it to about a third: per-layer numbers need
// fewer samples than gated ones, and the traced run also pays for the
// kernel measurements.
func (w workload) timedCycles(seconds int, traced bool) int {
	if traced {
		return max(4, int(math.Round(w.rate*float64(seconds)/3)))
	}
	return max(w.minTimed, int(math.Round(w.rate*float64(seconds))))
}
