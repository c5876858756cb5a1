package main

import (
	"runtime"
	"time"

	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/scenario"
	"github.com/gossipkit/slicing/internal/sim"
	"github.com/gossipkit/slicing/internal/telemetry"
)

// liveRun is what stepping a live cluster through warm+timed cycles
// recorded.
type liveRun struct {
	steps      []time.Duration   // timed LiveCluster.Step wall times
	nodeCycles float64           // Σ live nodes over timed cycles
	msgs       sim.MessageCounts // delivered and dropped inside the timed steps
	allocBytes uint64            // TotalAlloc inside the timed Step calls
	sdm        []float64         // SDM at cycle 0 and after every cycle
	sizes      []float64
	badSteps   int
}

// startLive materializes and starts the cluster a spec describes,
// recording a span around each of the two calls.
func startLive(spec scenario.Spec, inst scenario.Instrumentation, tr *tracer) (*scenario.LiveCluster, time.Duration, error) {
	t0 := time.Now()
	lc, err := scenario.MaterializeLiveWith(spec, inst)
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	tr.record(rootSpan, "scenario.MaterializeLive", t0, t1)
	err = lc.Start()
	tr.record(rootSpan, "runtime.Cluster.Start", t1, time.Now())
	if err != nil {
		lc.Stop()
		return nil, 0, err
	}
	return lc, t1.Sub(t0), nil
}

// liveStepper steps one cluster cycle by cycle, keeping the series the
// fingerprint and the metrics need. Measurements between steps (SDM,
// size) read a quiescent cluster: under the virtual clock nothing moves
// outside Step.
type liveStepper struct {
	lc        *scenario.LiveCluster
	tr        *tracer
	cycle     int
	timedFrom sim.MessageCounts // the cluster's counts when the first timed step began
	run       liveRun
}

func newLiveStepper(lc *scenario.LiveCluster, tr *tracer) *liveStepper {
	s := &liveStepper{lc: lc, tr: tr}
	s.sample()
	return s
}

func (s *liveStepper) sample() {
	states := s.lc.Cluster.States()
	s.run.sdm = append(s.run.sdm, metrics.SDM(states, s.lc.Part))
	s.run.sizes = append(s.run.sizes, float64(len(states)))
}

// step advances one cycle; timed steps enter the run's totals.
func (s *liveStepper) step(timed bool) {
	m0 := s.lc.Cluster.MessageCounts()
	// Allocation is read only in traced runs: ReadMemStats stops the
	// world, which the serve workload's clients would feel.
	var a0 uint64
	if s.tr != nil {
		a0 = totalAlloc()
	}
	t0 := time.Now()
	err := s.lc.Step(s.cycle)
	t1 := time.Now()
	var alloc uint64
	if s.tr != nil {
		alloc = totalAlloc() - a0
	}
	s.cycle++
	s.tr.record(rootSpan, "scenario.LiveCluster.Step", t0, t1)
	if err != nil {
		s.run.badSteps++
	}
	s.sample()
	if !timed {
		return
	}
	m1 := s.lc.Cluster.MessageCounts()
	s.run.allocBytes += alloc
	s.run.steps = append(s.run.steps, t1.Sub(t0))
	s.run.nodeCycles += s.run.sizes[len(s.run.sizes)-1]
	// Timed steps are the run's last and follow one another, so the
	// window's traffic is what was counted since the first of them began.
	if len(s.run.steps) == 1 {
		s.timedFrom = sim.MessageCounts(m0)
	}
	s.run.msgs = countsSince(sim.MessageCounts(m1), s.timedFrom)
}

// liveFingerprint hashes every simulated statistic of a live run.
func liveFingerprint(lc *scenario.LiveCluster, run liveRun) string {
	fp := newFingerprinter()
	fp.f64(run.sdm...)
	fp.f64(run.sizes...)
	m := lc.Cluster.MessageCounts()
	fp.u64(m.ViewRequests, m.ViewReplies, m.SwapRequests, m.SwapReplies, m.RankUpdates, m.Dropped)
	for _, n := range lc.Cluster.Nodes() {
		if st, ok := n.OrderingStats(); ok {
			fp.u64(st.ReqSent, st.ReqReceived, st.SwapFailedAtReceiver, st.SwapFailedAtInitiator, st.SwapAbandonedAtSender, st.Swapped)
		}
	}
	return fp.String()
}

// runLive measures the live workload.
func runLive(w workload, o options) (*Result, *tracer, error) {
	res, tr := newResult(w, o)
	timed := w.timedCycles(o.seconds, o.trace)

	base := heapLive()
	var lc *scenario.LiveCluster
	var builds []time.Duration
	setups, err := repeatSetup(o, func() {
		if lc != nil {
			lc.Stop()
			lc = nil
		}
	}, func() error {
		var d time.Duration
		var err error
		lc, d, err = startLive(w.spec, scenario.Instrumentation{}, tr)
		builds = append(builds, d)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	defer lc.Stop()
	plain := newLiveStepper(lc, tr)

	// A traced run steps an instrumented twin of the cluster in
	// lockstep: same spec, same seed, so the same trajectory, and each
	// pair of steps compares the telemetry plane's cost on equal work.
	var twin *liveStepper
	if o.trace {
		inst := scenario.Instrumentation{Telemetry: telemetry.NewRegistry(), Trace: telemetry.NewTraceRing(0)}
		tlc, _, err := startLive(w.spec, inst, nil)
		if err != nil {
			return nil, nil, err
		}
		defer tlc.Stop()
		twin = newLiveStepper(tlc, nil)
	}
	for i := 0; i < w.warm+timed; i++ {
		isTimed := i >= w.warm
		tr.setEnabled(!isTimed || abba(i-w.warm))
		plain.step(isTimed)
		if twin != nil {
			twin.step(isTimed)
		}
	}
	tr.setEnabled(true)
	run := plain.run
	heap := heapLive() - base

	res.check("step", w.warm+timed, run.badSteps, "LiveCluster.Step returned an error")
	ratio := sdmRatio(run.sdm[0], run.sdm[len(run.sdm)-1])
	res.expect("sdm-falls", ratio < 1, "final_sdm_ratio %v is not below 1", ratio)
	res.Fingerprint = liveFingerprint(lc, run)
	res.Samples = len(run.steps)
	res.Series = millis(run.steps)
	if twin != nil {
		res.expect("telemetry-keeps-trajectory", liveFingerprint(twin.lc, twin.run) == res.Fingerprint,
			"the instrumented twin cluster diverged from the plain one")
	}

	if !o.trace {
		stepMS := sortedCopy(res.Series)
		res.endToEndMetrics(setups, run.nodeCycles/(sum(stepMS)/1e3),
			percentile(stepMS, 0.5), percentile(stepMS, 0.9), heap, w.spec.N, ratio)
	} else {
		res.add("runtime.new_cluster_ms", median(millis(builds)), "ms")
		runtimeLayerMetrics(res, run)
		res.add("runtime.telemetry_overhead_frac",
			sum(millis(twin.run.steps))/sum(res.Series)-1, "ratio")
		res.add("trace.overhead_frac", overheadFrac(run.steps), "ratio")
	}
	runtime.KeepAlive(lc)
	return res, tr, nil
}

// runtimeLayerMetrics derives the runtime.* metrics from timed steps of a
// live cluster (the live workload's, or the serve workload's background
// gossip).
func runtimeLayerMetrics(res *Result, run liveRun) {
	stepMS := sortedCopy(millis(run.steps))
	delivered := float64(run.msgs.Total())
	if delivered == 0 {
		return
	}
	res.add("runtime.advance_us_per_msg", sum(stepMS)*1e3/delivered, "us")
	res.add("runtime.msgs_per_node_cycle", delivered/run.nodeCycles, "count")
	res.add("runtime.dropped_frac", float64(run.msgs.Dropped)/(delivered+float64(run.msgs.Dropped)), "ratio")
	res.add("runtime.alloc_bytes_per_msg", float64(run.allocBytes)/delivered, "B")
	res.add("runtime.cycle_ms_p90", percentile(stepMS, 0.9), "ms")
}
