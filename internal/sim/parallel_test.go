package sim

import (
	"fmt"
	"testing"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/ordering"
)

// runFingerprint captures everything a worker count could plausibly
// perturb: every recorded series point, the message counters, the
// fault-injection tallies, the ordering stats and the exact final
// per-node state.
type runFingerprint struct {
	sdm, gdm, unsucc, size string
	messages               MessageCounts
	faults                 FaultCounts
	ordering               ordering.Stats
	finalN                 int
	states                 string
}

func fingerprint(e *Engine) runFingerprint {
	fp := runFingerprint{
		messages: e.Delivered,
		faults:   e.FaultTally(),
		ordering: e.OrderingStats(),
		finalN:   e.N(),
	}
	fp.sdm = fmt.Sprintf("%v", e.SDM().Points)
	fp.gdm = fmt.Sprintf("%v", e.GDM().Points)
	fp.unsucc = fmt.Sprintf("%v", e.UnsuccessfulPct().Points)
	fp.size = fmt.Sprintf("%v", e.Size().Points)
	fp.states = fmt.Sprintf("%v", e.States())
	return fp
}

// invarianceConfigs is the compatibility matrix of the worker-count
// contract: both protocols, every membership substrate, concurrency on
// and off, static and churned.
func invarianceConfigs() map[string]Config {
	attr := dist.Uniform{Lo: 0, Hi: 1000}
	flat := churn.Flat{JoinRate: 0.02, LeaveRate: 0.02}
	// Three boundaries inside one cell of the partition's lookup grid,
	// then one wide slice: the only config whose slices are not equal.
	clustered, err := core.NewPartition(0.05, 0.0625, 0.07, 0.8)
	if err != nil {
		panic(err)
	}
	return map[string]Config{
		"ordering/modjk/cyclon": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ordering,
			Policy: ordering.SelectMaxGain, AttrDist: attr, Seed: 11, RecordGDM: true,
		},
		// Discrete attributes: neighbors share attribute keys, so the packed
		// rank kernel refuses, the worker's scratch latches, and every later
		// tick takes the exact count's ID tie-break.
		"ordering/modjk/cyclon/tied-attrs": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ordering,
			Policy: ordering.SelectMaxGain, AttrDist: dist.Zipf{S: 1, N: 8}, Seed: 18, RecordGDM: true,
		},
		"ordering/jk/cyclon/halfconc": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ordering,
			Policy: ordering.SelectRandomMisplaced, Concurrency: 0.5,
			AttrDist: attr, Seed: 12,
		},
		"ordering/modjk/fullconc/stale/churn": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ordering,
			Policy: ordering.SelectMaxGain, Concurrency: 1, StalePayloads: true,
			AttrDist: attr, Seed: 13,
			Schedule: flat, Pattern: churn.Uniform{Dist: attr},
		},
		"ranking/cyclon/churn": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ranking,
			AttrDist: attr, Seed: 14,
			Schedule: flat, Pattern: churn.Correlated{Spread: 10},
		},
		"ranking/cyclon/custom-partition": {
			N: 400, Partition: &clustered, ViewSize: 12, Protocol: Ranking,
			AttrDist: attr, Seed: 19,
		},
		"ranking/uniform/window/churn": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ranking,
			Membership: UniformOracle, Estimator: WindowEstimator, WindowSize: 500,
			AttrDist: attr, Seed: 15,
			Schedule: flat, Pattern: churn.Uniform{Dist: attr},
		},
		// The fault plane must not break the contract: all four fault
		// families at once, on both protocols, under churn.
		"ranking/window/churn/faults": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ranking,
			Estimator: WindowEstimator, WindowSize: 500,
			AttrDist: attr, Seed: 16,
			Schedule: flat, Pattern: churn.Uniform{Dist: attr},
			Faults: allFaultsPlan(),
		},
		"ordering/modjk/churn/faults": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: Ordering,
			Policy: ordering.SelectMaxGain, Concurrency: 0.5,
			AttrDist: attr, Seed: 17, RecordGDM: true,
			Schedule: flat, Pattern: churn.Uniform{Dist: attr},
			Faults: allFaultsPlan(),
		},
	}
}

// allFaultsPlan stacks every fault family into one plan, with windows
// that open, overlap and close inside a 40-cycle run.
func allFaultsPlan() *fault.Plan {
	return &fault.Plan{
		Drift: &fault.Drift{
			Kind: fault.DriftWalk, Window: fault.Window{From: 5, To: 30},
			Frac: 0.3, Amp: 15,
		},
		Byzantine: &fault.Byzantine{
			Policy: fault.LieAlwaysTop, Window: fault.Window{From: 8, To: 25},
			Frac: 0.1, TargetSlice: -1,
		},
		Partition: &fault.Partition{Window: fault.Window{From: 12, To: 20}, Groups: 2},
		Chaos: []fault.Chaos{
			{Window: fault.Window{From: 0, To: 15}, Loss: 0.1, Dup: 0.05, Delay: 0.1},
			{Window: fault.Window{From: 25, To: 35}, Loss: 0.3},
		},
	}
}

// TestWorkerCountInvariance is the parallel engine's compatibility
// contract: the same spec and seed produce BIT-IDENTICAL results — SDM
// series, GDM series, unsuccessful-swap series, message counts, fault
// tallies, ordering stats and the exact final membership — at every
// worker count. This is what makes Workers a pure throughput knob.
func TestWorkerCountInvariance(t *testing.T) {
	const cycles = 40
	for name, cfg := range invarianceConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Workers = 1
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(cycles)
			want := fingerprint(ref)
			for _, workers := range []int{2, 3, 8} {
				cfg.Workers = workers
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.Run(cycles)
				got := fingerprint(e)
				if got.sdm != want.sdm {
					t.Fatalf("workers=%d: SDM series diverges\n got %.120s...\nwant %.120s...", workers, got.sdm, want.sdm)
				}
				if got.gdm != want.gdm {
					t.Fatalf("workers=%d: GDM series diverges", workers)
				}
				if got.unsucc != want.unsucc {
					t.Fatalf("workers=%d: unsuccessful%% series diverges", workers)
				}
				if got.size != want.size {
					t.Fatalf("workers=%d: size series diverges", workers)
				}
				if got.messages != want.messages {
					t.Fatalf("workers=%d: message counts diverge: %+v vs %+v", workers, got.messages, want.messages)
				}
				if got.faults != want.faults {
					t.Fatalf("workers=%d: fault tallies diverge: %+v vs %+v", workers, got.faults, want.faults)
				}
				if got.ordering != want.ordering {
					t.Fatalf("workers=%d: ordering stats diverge: %+v vs %+v", workers, got.ordering, want.ordering)
				}
				if got.finalN != want.finalN || got.states != want.states {
					t.Fatalf("workers=%d: final membership diverges", workers)
				}
			}
		})
	}
}

// TestWorkersValidation pins the Workers knob's validation and the
// 0-means-serial default.
func TestWorkersValidation(t *testing.T) {
	cfg := baseOrderingConfig()
	cfg.Workers = -1
	if _, err := New(cfg); err != ErrConfigWorkers {
		t.Errorf("Workers=-1: error = %v, want ErrConfigWorkers", err)
	}
	cfg.Workers = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.workers != 1 {
		t.Errorf("Workers=0 resolved to %d, want 1", e.workers)
	}
	cfg.Workers = 4
	e, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.workers != 4 {
		t.Errorf("Workers=4 resolved to %d", e.workers)
	}
}

// TestParallelEngineAtScale drives the parallel engine at N=10,000 with
// churn on several workers — under `go test -race` this is the race
// gate of the compute/commit rounds (make test runs it uncached).
// The population shrinks under the race detector's ~10x slowdown only
// in -short mode; the full run is the wired-in N=10k acceptance check.
func TestParallelEngineAtScale(t *testing.T) {
	n, cycles := 10_000, 10
	if testing.Short() && raceEnabled {
		n, cycles = 2_000, 5
	}
	cfg := Config{
		N: n, Slices: 100, ViewSize: 20,
		Protocol: Ordering, Policy: ordering.SelectMaxGain,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 3,
		Schedule: churn.Flat{JoinRate: 0.001, LeaveRate: 0.001},
		Pattern:  churn.Uniform{Dist: dist.Uniform{Lo: 0, Hi: 1000}},
		Workers:  8,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(cycles)
	start, _ := e.SDM().At(0)
	end, _ := e.SDM().Last()
	if end.Value >= start {
		t.Errorf("no convergence at scale: SDM %v → %v", start, end.Value)
	}
	checkArenaConsistency(t, e)
}
