package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
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

// zipf draws ranks from the finite Zipf law P(k) ∝ k^(−s) on {1..n}:
// a handful of distinct attribute values, so neighbors share keys.
type zipf struct {
	s float64
	n int
}

// Sample implements dist.Source.
func (z zipf) Sample(rng *rand.Rand) float64 {
	total := 0.0
	for k := 1; k <= z.n; k++ {
		total += math.Pow(float64(k), -z.s)
	}
	u, cum := rng.Float64()*total, 0.0
	for k := 1; k < z.n; k++ {
		cum += math.Pow(float64(k), -z.s)
		if u < cum {
			return float64(k)
		}
	}
	return float64(z.n)
}

// invarianceConfigs is the compatibility matrix of the worker-count
// contract: both protocols, every membership substrate, concurrency on
// and off, static and churned, and the protocol round's prefetch
// lookaheads at their edges — populations below the tick's distance
// and the commit cursors' distances (worker spans of one or two slots),
// and a commit with no swap request.
func invarianceConfigs() map[string]Config {
	attr := dist.Uniform{Lo: 0, Hi: 1000}
	flat := churn.Flat{JoinRate: 0.02, LeaveRate: 0.02}
	// Three boundaries inside one cell of the partition's lookup grid,
	// then one wide slice: the only config whose slices are not equal.
	clustered, err := core.NewPartition(0.05, 0.0625, 0.07, 0.8)
	if err != nil {
		panic(err)
	}
	small := func(n, view int, seed int64) Config {
		return Config{
			N: n, Slices: 4, ViewSize: view, Protocol: proto.Ordering,
			Policy: ordering.SelectMaxGain, AttrDist: attr, Seed: seed,
		}
	}
	// Equal attributes: no node is ever misplaced, so no slot sends a
	// swap request and the commit cursors find nothing.
	noSwaps := small(40, 8, 8)
	noSwaps.AttrDist = dist.Uniform{Lo: 5, Hi: 5}
	return map[string]Config{
		"ordering/n=1":      small(1, 4, 1),
		"ordering/n=2":      small(2, 4, 2),
		"ordering/n=5":      small(5, 4, 3),
		"ordering/n=12":     small(12, 6, 4),
		"ordering/n=40":     small(40, 8, 5),
		"ordering/no-swaps": noSwaps,
		"ranking/n=5":       {N: 5, Slices: 2, ViewSize: 4, Protocol: proto.Ranking, AttrDist: attr, Seed: 10},
		"ordering/modjk/cyclon": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ordering,
			Policy: ordering.SelectMaxGain, AttrDist: attr, Seed: 11, RecordGDM: true,
		},
		// Discrete attributes: neighbors share attribute keys, so the packed
		// rank kernel refuses, the worker's scratch latches, and every later
		// tick takes the exact count's ID tie-break.
		"ordering/modjk/cyclon/tied-attrs": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ordering,
			Policy: ordering.SelectMaxGain, AttrDist: zipf{s: 1, n: 8}, Seed: 18, RecordGDM: true,
		},
		"ordering/jk/cyclon/halfconc": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ordering,
			Policy: ordering.SelectRandomMisplaced, Concurrency: 0.5,
			AttrDist: attr, Seed: 12,
		},
		"ordering/modjk/fullconc/stale/churn": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ordering,
			Policy: ordering.SelectMaxGain, Concurrency: 1, StalePayloads: true,
			AttrDist: attr, Seed: 13,
			Schedule: flat, Pattern: churn.Uniform{Dist: attr},
		},
		"ranking/cyclon/churn": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ranking,
			AttrDist: attr, Seed: 14,
			Schedule: flat, Pattern: churn.Correlated{Spread: 10},
		},
		"ranking/cyclon/custom-partition": {
			N: 400, Partition: &clustered, ViewSize: 12, Protocol: proto.Ranking,
			AttrDist: attr, Seed: 19,
		},
		"ranking/uniform/window/churn": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ranking,
			Membership: UniformOracle, Estimators: windows(500),
			AttrDist: attr, Seed: 15,
			Schedule: flat, Pattern: churn.Uniform{Dist: attr},
		},
		// The fault plane must not break the contract: all four fault
		// families at once, on both protocols, under churn.
		"ranking/window/churn/faults": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ranking,
			Estimators: windows(500),
			AttrDist:   attr, Seed: 16,
			Schedule: flat, Pattern: churn.Uniform{Dist: attr},
			Faults: allFaultsPlan(),
		},
		"ordering/modjk/churn/faults": {
			N: 400, Slices: 10, ViewSize: 12, Protocol: proto.Ordering,
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
			Frac: 0.1,
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

// TestCommitSwapCountEdges pins the commit lookahead's two edges: the
// no-swaps config ticks no swap request, and random values in reverse
// attribute order, which no config reaches, make every pair of nodes
// misplaced, so every slot sends one in the first cycle and the run
// still matches at one and three workers.
func TestCommitSwapCountEdges(t *testing.T) {
	e, err := New(invarianceConfigs()["ordering/no-swaps"])
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if s := slices.IndexFunc(e.swapTo, func(to core.ID) bool { return to != 0 }); s >= 0 {
		t.Fatalf("no-swaps: slot %d sent a swap request", s)
	}
	var want runFingerprint
	for _, workers := range []int{1, 3} {
		e, err := New(Config{
			N: 60, Slices: 4, ViewSize: 10, Protocol: proto.Ordering, Policy: ordering.SelectMaxGain,
			AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 9, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		byAttr := make([]int, len(e.ids))
		for s := range byAttr {
			byAttr[s] = s
		}
		slices.SortFunc(byAttr, func(a, b int) int { return cmp.Compare(e.attrs[a], e.attrs[b]) })
		rs := slices.Sorted(slices.Values(e.rs))
		for i, s := range byAttr {
			e.rs[s] = rs[len(rs)-1-i]
		}
		e.Step()
		if s := slices.Index(e.swapTo, 0); s >= 0 {
			t.Fatalf("workers=%d: slot %d sent no swap request", workers, s)
		}
		e.Run(11)
		if got := fingerprint(e); workers == 1 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: run diverges from workers=1", workers)
		}
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
		Protocol: proto.Ordering, Policy: ordering.SelectMaxGain,
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
