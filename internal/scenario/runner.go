package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/sim"
)

// Grid declares a sweep: a set of registry scenarios, replicated over
// seeds, at a common scale. Expanding a grid is deterministic — the same
// grid always yields the same runs with the same per-run seeds,
// regardless of worker count.
type Grid struct {
	// Scenarios are registry names; empty means every registered
	// scenario.
	Scenarios []string
	// Replicas runs each spec this many times under distinct derived
	// seeds (default 1).
	Replicas int
	// Scale shrinks paper-scale specs via Spec.Scaled; 0 or 1 = paper
	// scale.
	Scale float64
	// BaseSeed feeds the per-run seed derivation (default 1).
	BaseSeed int64
}

// Run is one expanded unit of work: a fully resolved spec plus its
// provenance in the grid.
type Run struct {
	// Index is the run's position in the expanded grid (emission order).
	Index int `json:"index"`
	// Scenario is the registry family the spec came from.
	Scenario string `json:"scenario"`
	// Replica numbers the seed replicas of one spec, from 0.
	Replica int `json:"replica"`
	// Spec is the scaled, seeded spec the simulator executes.
	Spec Spec `json:"spec"`
}

// DeriveSeed maps (baseSeed, scenario, spec name, spec seed, replica) to
// a run seed by FNV-1a hashing, so grids are reproducible — the same
// grid yields the same per-run seeds in any execution order — while
// distinct runs decorrelate. The spec's own seed participates, keeping
// scenarios that pin a seed (e.g. quickstart) distinct across replicas
// yet stable across sweeps.
func DeriveSeed(baseSeed int64, scenarioName, specName string, specSeed int64, replica int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(baseSeed))
	h.Write(buf[:])
	h.Write([]byte(scenarioName))
	h.Write([]byte{0})
	h.Write([]byte(specName))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(specSeed))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(replica))
	h.Write(buf[:])
	seed := int64(h.Sum64())
	if seed < 0 {
		seed = -seed
	}
	return seed
}

// Expand resolves the grid into its run list: every spec of every
// scenario × every replica, scaled and seeded.
func (g Grid) Expand() ([]Run, error) {
	names := g.Scenarios
	if len(names) == 0 {
		names = Names()
	}
	replicas := g.Replicas
	if replicas < 1 {
		replicas = 1
	}
	scale := g.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 || scale > 1 {
		return nil, specErr("grid scale %v outside (0,1]", scale)
	}
	baseSeed := g.BaseSeed
	if baseSeed == 0 {
		baseSeed = 1
	}
	var runs []Run
	for _, name := range names {
		sc, err := Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, spec := range sc.Specs {
			for rep := 0; rep < replicas; rep++ {
				scaled := spec.Scaled(scale)
				scaled.Seed = DeriveSeed(baseSeed, sc.Name, spec.Name, spec.Seed, rep)
				runs = append(runs, Run{
					Index:    len(runs),
					Scenario: sc.Name,
					Replica:  rep,
					Spec:     scaled,
				})
			}
		}
	}
	return runs, nil
}

// Timing is the non-deterministic part of a run result: wall time and
// throughput. Emitters drop it when byte-identical output matters.
type Timing struct {
	// WallMS is the run's wall-clock time in milliseconds.
	WallMS float64 `json:"wallMS"`
	// CyclesPerSec is Cycles / wall time: the sweep-as-benchmark number.
	CyclesPerSec float64 `json:"cyclesPerSec"`
	// Phases is the engine's per-phase wall breakdown over all cycles
	// (sim backend only; zero for live runs). The sum is engine-loop time;
	// the gap to WallMS is construction plus final-measure overhead.
	Phases sim.PhaseNanos `json:"phases"`
}

// RunResult is the outcome of one run: the run identity, the backend
// that executed it, the headline measurements, optionally the thinned
// SDM series, and timing.
type RunResult struct {
	Run
	// Backend tags the engine that executed the run ("sim" or "live").
	// Both backends emit the same result shape, so results from the two
	// engines are directly comparable (and diffable) record for record.
	Backend string `json:"backend,omitempty"`
	// Error is set when the spec failed validation or construction; the
	// measurement fields are zero in that case.
	Error string `json:"error,omitempty"`
	// FinalSDM is the slice disorder at the last cycle.
	FinalSDM float64 `json:"finalSDM"`
	// FinalN is the live population after churn.
	FinalN int `json:"finalN"`
	// Messages tallies delivered protocol messages.
	Messages sim.MessageCounts `json:"messages"`
	// SDM is the per-cycle disorder series, thinned to the spec's
	// SampleEvery cadence (omitted when SampleEvery is 0).
	SDM []metrics.Point `json:"sdm,omitempty"`
	// Timing is nil when the runner's timing collection is disabled.
	Timing *Timing `json:"timing,omitempty"`
	// Mem is the engine's end-of-run memory budget (sim backend only).
	// Like Timing it is machine-specific only in that it exists per run —
	// the numbers themselves are deterministic — but it rides the same
	// switch so DisableTiming keeps sweep output a pure function of the
	// grid.
	Mem *sim.MemReport `json:"mem,omitempty"`
	// Out is the backend's full result, the input of Scenario.Check; it
	// is not emitted.
	Out *sim.Result `json:"-"`
}

// Runner fans runs across a worker pool. The zero value runs on every
// core with timing enabled, on the simulator backend.
type Runner struct {
	// Workers bounds the pool; 0 = GOMAXPROCS.
	Workers int
	// DisableTiming omits wall-time from results, making the output of a
	// sweep a pure function of the grid (byte-identical across runs and
	// worker counts; sim backend only — live runs are scheduled by a
	// concurrent worker pool and are statistically, not bitwise,
	// reproducible).
	DisableTiming bool
	// Backend executes the runs; nil means SimBackend. Live-backend
	// sweeps each spin up their own scheduler worker pool, so keep
	// Workers low (1–2) when sweeping live runs.
	Backend Backend
}

// backend returns the effective backend.
func (r Runner) backend() Backend {
	if r.Backend == nil {
		return SimBackend{}
	}
	return r.Backend
}

// execute runs one spec to completion.
func (r Runner) execute(run Run) RunResult {
	b := r.backend()
	res := RunResult{Run: run, Backend: b.Name()}
	start := time.Now()
	out, err := b.Run(run.Spec)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	elapsed := time.Since(start)
	res.Out = out
	if last, ok := out.SDM.Last(); ok {
		res.FinalSDM = last.Value
	}
	res.FinalN = out.FinalN
	res.Messages = out.Messages
	if every := run.Spec.SampleEvery; every > 0 {
		for i, p := range out.SDM.Points {
			if p.Cycle%every == 0 || i == len(out.SDM.Points)-1 {
				res.SDM = append(res.SDM, p)
			}
		}
	}
	if !r.DisableTiming {
		res.Timing = &Timing{
			WallMS:       float64(elapsed.Microseconds()) / 1000,
			CyclesPerSec: float64(run.Spec.Cycles) / elapsed.Seconds(),
			Phases:       out.Phases,
		}
		if out.Mem.Nodes > 0 {
			mem := out.Mem
			res.Mem = &mem
		}
	}
	return res
}

// Sweep executes every run across the worker pool and returns the
// results in grid order (by Run.Index), independent of scheduling. If
// onResult is non-nil it is called from the collecting goroutine as each
// run completes — completion order, for progress streaming.
func (r Runner) Sweep(runs []Run, onResult func(RunResult)) []RunResult {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan Run)
	done := make(chan RunResult)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range jobs {
				done <- r.execute(run)
			}
		}()
	}
	go func() {
		for _, run := range runs {
			jobs <- run
		}
		close(jobs)
		wg.Wait()
		close(done)
	}()
	results := make([]RunResult, len(runs))
	for res := range done {
		results[res.Index] = res
		if onResult != nil {
			onResult(res)
		}
	}
	return results
}

// SweepGrid is Expand followed by Sweep.
func (r Runner) SweepGrid(g Grid, onResult func(RunResult)) ([]RunResult, error) {
	runs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	return r.Sweep(runs, onResult), nil
}

// Summary renders a one-line digest of a result for progress streams.
func (res RunResult) Summary() string {
	tag := ""
	if res.Backend != "" && res.Backend != BackendSim {
		tag = "[" + res.Backend + "] "
	}
	if res.Error != "" {
		return fmt.Sprintf("%s%s/%s#%d: ERROR %s", tag, res.Scenario, res.Spec.Name, res.Replica, res.Error)
	}
	s := fmt.Sprintf("%s%s/%s#%d: n=%d cycles=%d sdm=%.4g",
		tag, res.Scenario, res.Spec.Name, res.Replica, res.FinalN, res.Spec.Cycles, res.FinalSDM)
	if res.Timing != nil {
		s += fmt.Sprintf(" (%.0fms, %.0f cycles/s)", res.Timing.WallMS, res.Timing.CyclesPerSec)
	}
	return s
}
