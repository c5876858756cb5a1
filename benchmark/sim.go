package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/gossipkit/slicing/internal/scenario"
	"github.com/gossipkit/slicing/internal/sim"
)

// options are the arguments of one run.
type options struct {
	seed    int64
	seconds int
	trace   bool
	// kernels sizes the traced run's kernel measurements.
	kernels kernelScale
}

// repeatSetup tears down and rebuilds an instance several times and
// returns each build's wall time in seconds: the set-up metric is their
// median, because one set-up of a small workload is a few hundred
// milliseconds of mostly allocation and a single reading of it is noisy.
// It stops after five, or once the builds have used a third of the run's
// --seconds (the million-node engine takes seconds to build, so it gets
// two).
func repeatSetup(o options, teardown func(), build func() error) ([]float64, error) {
	budget := time.Duration(o.seconds) * time.Second / 3
	var times []float64
	var used time.Duration
	for len(times) < 5 && (len(times) == 0 || used < budget) {
		// Collect the previous instance before the clock starts, so its
		// garbage is not collected on this build's time.
		teardown()
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		used += d
	}
	return times, nil
}

// simRun is the measured part of a sim workload: the engine after its
// timed window, with what the window recorded.
type simRun struct {
	e          *sim.Engine
	steps      []time.Duration // timed Step wall times
	nodeCycles float64         // Σ live nodes over timed cycles
	phases     sim.PhaseNanos  // phase totals over the timed window
	msgs       sim.MessageCounts
	churnEv    int    // join+leave events over the timed window
	allocBytes uint64 // TotalAlloc over the timed window
}

// stepSim runs warm+timed cycles on e. With a tracer it records a span
// per Step, with child spans built from the Engine.Phases deltas.
func stepSim(e *sim.Engine, cfg sim.Config, warm, timed int, tr *tracer, res *Result) simRun {
	run := simRun{e: e}
	static := cfg.Schedule == nil
	badCycles := 0
	step := func(traced bool) time.Duration {
		if cfg.Schedule != nil {
			ev := cfg.Schedule.At(e.Cycle(), e.N())
			run.churnEv += ev.Join + ev.Leave
		}
		before := e.Delivered.ViewRequests
		var p0 sim.PhaseNanos
		if tr != nil {
			p0 = e.Phases()
		}
		t0 := time.Now()
		e.Step()
		t1 := time.Now()
		if tr != nil && traced {
			p1 := e.Phases()
			id := tr.record(rootSpan, "sim.Engine.Step", t0, t1)
			at := t0
			for _, ph := range []struct {
				name string
				ns   int64
			}{
				{"sim.churn", p1.ChurnNS - p0.ChurnNS},
				{"sim.membership", p1.MembershipNS - p0.MembershipNS},
				{"sim.protocol", p1.ProtocolNS - p0.ProtocolNS},
				{"sim.measure", p1.MeasureNS - p0.MeasureNS},
			} {
				end := at.Add(time.Duration(ph.ns))
				tr.record(id, ph.name, at, end)
				at = end
			}
		}
		// Every live node starts one view exchange per cycle; in the
		// static system none can fail, so requests delivered = live nodes.
		if static && e.Delivered.ViewRequests-before != uint64(e.N()) {
			badCycles++
		}
		if last, ok := e.SDM().Last(); !ok || last.Cycle != e.Cycle() || math.IsNaN(last.Value) {
			badCycles++
		}
		return t1.Sub(t0)
	}
	for i := 0; i < warm; i++ {
		step(true)
	}
	p0, m0, a0 := e.Phases(), e.Delivered, totalAlloc()
	for i := 0; i < timed; i++ {
		on := abba(i)
		tr.setEnabled(on)
		run.steps = append(run.steps, step(on))
		run.nodeCycles += float64(e.N())
	}
	tr.setEnabled(true)
	p1, m1 := e.Phases(), e.Delivered
	run.allocBytes = totalAlloc() - a0
	run.phases = sim.PhaseNanos{
		ChurnNS:      p1.ChurnNS - p0.ChurnNS,
		MembershipNS: p1.MembershipNS - p0.MembershipNS,
		ProtocolNS:   p1.ProtocolNS - p0.ProtocolNS,
		MeasureNS:    p1.MeasureNS - p0.MeasureNS,
	}
	run.msgs = countsSince(m1, m0)
	res.check("cycle", warm+timed, badCycles, "a cycle's view requests did not match its live nodes, or its SDM sample is missing")
	return run
}

// countsSince returns the messages counted between two readings.
func countsSince(now, before sim.MessageCounts) sim.MessageCounts {
	return sim.MessageCounts{
		ViewRequests: now.ViewRequests - before.ViewRequests,
		ViewReplies:  now.ViewReplies - before.ViewReplies,
		SwapRequests: now.SwapRequests - before.SwapRequests,
		SwapReplies:  now.SwapReplies - before.SwapReplies,
		RankUpdates:  now.RankUpdates - before.RankUpdates,
		Dropped:      now.Dropped - before.Dropped,
	}
}

// valuesDigest hashes the engine's coordinates in ascending order: the
// multiset the ordering protocol's swaps must conserve.
func valuesDigest(e *sim.Engine) string {
	states := e.States()
	rs := make([]float64, len(states))
	for i, s := range states {
		rs[i] = s.R
	}
	sort.Float64s(rs)
	fp := newFingerprinter()
	fp.f64(rs...)
	return fp.String()
}

// simFingerprint hashes every simulated statistic of the run.
func simFingerprint(e *sim.Engine) string {
	fp := newFingerprinter()
	for _, p := range e.SDM().Points {
		fp.f64(p.Value)
	}
	for _, p := range e.Size().Points {
		fp.f64(p.Value)
	}
	m := e.Delivered
	fp.u64(m.ViewRequests, m.ViewReplies, m.SwapRequests, m.SwapReplies, m.RankUpdates, m.Dropped)
	st := e.OrderingStats()
	fp.u64(st.ReqSent, st.ReqReceived, st.SwapFailedAtReceiver, st.SwapFailedAtInitiator, st.SwapAbandonedAtSender, st.Swapped)
	return fp.String()
}

func sdmRatio(first, last float64) float64 {
	if first == 0 {
		return math.NaN()
	}
	return last / first
}

// runSim measures a sim workload.
func runSim(w workload, o options) (*Result, *tracer, error) {
	cfg, err := w.spec.Config()
	if err != nil {
		return nil, nil, err
	}
	res, tr := newResult(w, o)
	timed := w.timedCycles(o.seconds, o.trace)

	base := heapLive()
	var e *sim.Engine
	var newSpans []time.Duration
	setups, err := repeatSetup(o, func() { e = nil }, func() error {
		t0 := time.Now()
		var err error
		e, err = sim.New(cfg)
		t1 := time.Now()
		tr.record(rootSpan, "sim.New", t0, t1)
		newSpans = append(newSpans, t1.Sub(t0))
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	ordering := w.spec.Protocol == scenario.ProtoOrdering
	static := cfg.Schedule == nil
	values0 := ""
	if ordering && static {
		values0 = valuesDigest(e)
	}
	run := stepSim(e, cfg, w.warm, timed, tr, res)
	heap := heapLive() - base

	sdm := e.SDM()
	ratio := sdmRatio(sdm.Points[0].Value, sdm.Points[len(sdm.Points)-1].Value)
	res.expect("sdm-falls", ratio < 1, "final_sdm_ratio %v is not below 1", ratio)
	if values0 != "" {
		// The paper's conservation invariant: in the static atomic model
		// swaps only permute the random values.
		res.expect("random-values-conserved", values0 == valuesDigest(e),
			"the multiset of random values changed between cycle 0 and cycle %d", e.Cycle())
	}
	if !ordering {
		bad := 0
		for _, s := range e.States() {
			if !(s.R >= 0 && s.R <= 1) {
				bad++
			}
		}
		res.expect("estimates-in-unit-interval", bad == 0, "%d rank estimates outside [0,1]", bad)
	}
	res.Fingerprint = simFingerprint(e)
	res.Samples = len(run.steps)
	res.Series = millis(run.steps)

	if !o.trace {
		stepMS := sortedCopy(res.Series)
		res.endToEndMetrics(setups, run.nodeCycles/(sum(stepMS)/1e3),
			percentile(stepMS, 0.5), percentile(stepMS, 0.9), heap, w.spec.N, ratio)
	} else {
		simLayerMetrics(res, run, newSpans)
		res.add("trace.overhead_frac", overheadFrac(run.steps), "ratio")
		if w.spec.Churn != nil {
			sp, err := parallelSpeedup(w, cfg)
			if err != nil {
				return nil, nil, err
			}
			res.add("sim.parallel_speedup", sp, "ratio")
		}
	}
	runtime.KeepAlive(e)
	return res, tr, nil
}

// simLayerMetrics derives the sim.* metrics of a traced run.
func simLayerMetrics(res *Result, run simRun, newSpans []time.Duration) {
	nc := run.nodeCycles
	stepMS := sortedCopy(millis(run.steps))
	wallNS := sum(stepMS) * 1e6
	ph := run.phases
	res.add("sim.new_ms", median(millis(newSpans)), "ms")
	res.add("sim.membership_ns_per_node_cycle", float64(ph.MembershipNS)/nc, "ns")
	res.add("sim.protocol_ns_per_node_cycle", float64(ph.ProtocolNS)/nc, "ns")
	res.add("sim.measure_ns_per_node_cycle", float64(ph.MeasureNS)/nc, "ns")
	if run.churnEv > 0 {
		res.add("sim.churn_ns_per_event", float64(ph.ChurnNS)/float64(run.churnEv), "ns")
	}
	res.add("sim.cycle_ms_p90", percentile(stepMS, 0.9), "ms")
	// The reconciliation row: what the four phases leave unexplained.
	res.add("sim.step_unaccounted_frac", 1-float64(ph.Total())/wallNS, "ratio")

	mem := run.e.MemReport()
	n := float64(mem.Nodes)
	res.add("sim.arena_bytes_per_node", float64(mem.ArenaBytes)/n, "B")
	res.add("sim.state_bytes_per_node", float64(mem.StateBytes)/n, "B")
	res.add("sim.staging_bytes_per_node", float64(mem.StagingBytes)/n, "B")

	m := run.msgs
	res.add("sim.view_msgs_per_node_cycle", float64(m.ViewRequests+m.ViewReplies)/nc, "count")
	res.add("sim.swap_msgs_per_node_cycle", float64(m.SwapRequests+m.SwapReplies)/nc, "count")
	res.add("sim.rank_updates_per_node_cycle", float64(m.RankUpdates)/nc, "count")
	res.add("sim.dropped_msgs_per_node_cycle", float64(m.Dropped)/nc, "count")
	// ReqSent counts every ticked request, abandoned ones included; a
	// request is useful when the receiver applied the swap.
	if st := run.e.OrderingStats(); st.ReqSent > 0 {
		res.add("sim.swap_success_ratio",
			float64(st.ReqReceived-st.SwapFailedAtReceiver)/float64(st.ReqSent), "ratio")
	}
	res.add("sim.alloc_bytes_per_cycle", float64(run.allocBytes)/float64(len(run.steps)), "B")
}

// parallelSpeedup times 15 cycles of the churn workload at one worker
// and at one worker per core, on fresh engines.
func parallelSpeedup(w workload, cfg sim.Config) (float64, error) {
	const cycles = 15
	timeAt := func(workers int) (time.Duration, error) {
		c := cfg
		c.Workers = workers
		e, err := sim.New(c)
		if err != nil {
			return 0, err
		}
		e.Run(w.warm)
		t0 := time.Now()
		e.Run(cycles)
		return time.Since(t0), nil
	}
	serial, err := timeAt(1)
	if err != nil {
		return 0, err
	}
	parallel, err := timeAt(runtime.NumCPU())
	if err != nil {
		return 0, err
	}
	if parallel <= 0 {
		return 0, fmt.Errorf("parallel run of %d cycles took no time", cycles)
	}
	return float64(serial) / float64(parallel), nil
}
