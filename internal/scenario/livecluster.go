package scenario

import (
	"math/rand"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/runtime"
	"github.com/gossipkit/slicing/internal/sim"
	"github.com/gossipkit/slicing/internal/telemetry"
)

// LiveCluster is a spec materialized on the live runtime: a started
// cluster plus the spec-derived drive state (period, churn schedule,
// churn rng) needed to move it forward cycle by cycle. It is the
// machinery LiveBackend.Run is built on, exported so other consumers —
// benchmark/ steps one and stands a query plane on another — can run
// the exact cluster a scenario describes without duplicating the
// spec→cluster translation.
type LiveCluster struct {
	// Cluster is the started cluster.
	Cluster *runtime.Cluster
	// Part is the slice partition the spec resolved to.
	Part core.Partition
	// Period is one gossip period (= one cycle of virtual time).
	Period time.Duration
	// Protocol reports the spec's protocol family (sim.Ordering or
	// sim.Ranking), which calibration-aware consumers select on.
	Protocol sim.ProtocolKind
	// RealTime reports wall-clock pacing; false means driven virtual
	// time, stepped by Step.
	RealTime bool

	cfg sim.Config
	rng *rand.Rand

	// faults applies cfg.Faults; its stash is the ground truth for
	// disorder measures.
	faults *fault.Applier
}

// Instrumentation carries the observability hooks a caller can attach
// to a materialized run: a metrics registry and a protocol trace ring.
// The zero value attaches nothing and costs nothing.
type Instrumentation struct {
	// Telemetry receives the engine's metrics (scheduler queue depths,
	// delivery latency, message counters for live runs; cycle gauges and
	// phase timings for sim runs).
	Telemetry *telemetry.Registry
	// Trace receives protocol decision events (live runs only; the
	// cycle simulator records aggregate series instead).
	Trace *telemetry.TraceRing
	// AtEnd, when non-nil, is called by the backends after a run's last
	// cycle with the final population, while the run's engine or cluster
	// is still reachable: the one moment a heap profile or a GC'd heap
	// reading describes the run rather than what is left once it is gone.
	AtEnd func(spec Spec, nodes int)
}

// MaterializeLiveWith builds and starts the live cluster a spec
// describes, with observability hooks attached before it starts. The
// caller owns the result and must Stop it. Simulation-only knobs
// (uniform-oracle membership, artificial concurrency) are rejected,
// exactly as by the live backend.
func MaterializeLiveWith(spec Spec, inst Instrumentation) (*LiveCluster, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	if cfg.Membership == sim.UniformOracle {
		return nil, specErr("%s: the uniform-oracle membership is simulation-only (a live node has no global sampler)", spec.Name)
	}
	if spec.Concurrency != 0 || spec.StalePayloads {
		return nil, specErr("%s: concurrency/stalePayloads are simulation-only knobs; the live backend is concurrent by construction", spec.Name)
	}
	var part core.Partition
	if cfg.Partition != nil {
		part = *cfg.Partition
	} else {
		p, err := core.Equal(cfg.Slices)
		if err != nil {
			return nil, err
		}
		part = p
	}

	live := spec.Live
	if live == nil {
		live = &LiveSpec{}
	}
	periodMS := live.PeriodMS
	if periodMS == 0 {
		periodMS = DefaultLivePeriodMS
	}
	period := time.Duration(periodMS * float64(time.Millisecond))
	jitter := 0.0 // zero means the runtime default
	if live.JitterFrac != nil {
		jitter = *live.JitterFrac
		if jitter == 0 {
			jitter = runtime.JitterNone
		}
	}

	ccfg := runtime.ClusterConfig{
		N:          spec.N,
		Partition:  part,
		ViewSize:   spec.ViewSize,
		Period:     period,
		JitterFrac: jitter,
		AttrDist:   cfg.AttrDist,
		Seed:       cfg.Seed,
		Shards:     live.Shards,
		MinLatency: time.Duration(live.MinLatencyMS * float64(time.Millisecond)),
		MaxLatency: time.Duration(live.MaxLatencyMS * float64(time.Millisecond)),
		Loss:       live.Loss,
		Telemetry:  inst.Telemetry,
		Trace:      inst.Trace,
	}
	switch cfg.Protocol {
	case sim.Ordering:
		ccfg.Protocol = runtime.Ordering
		ccfg.Policy = cfg.Policy
	case sim.Ranking:
		ccfg.Protocol = runtime.Ranking
	}
	if cfg.Estimator == sim.WindowEstimator {
		w := cfg.WindowSize
		ccfg.Estimators = func() ranking.Estimator { return ranking.MustNewWindow(w) }
	}
	if !live.RealTime {
		ccfg.Clock = runtime.NewVirtualClock()
	}

	c, err := runtime.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	faults := fault.NewApplier(cfg.Faults, cfg.Seed, part)
	faults.Trace = c.Trace()
	return &LiveCluster{
		Cluster:  c,
		Part:     part,
		Period:   period,
		Protocol: cfg.Protocol,
		RealTime: live.RealTime,
		cfg:      cfg,
		// The driver's own rng decides churn membership picks;
		// decorrelated from the cluster's construction rng but equally
		// seeded.
		rng:    rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		faults: faults,
	}, nil
}

// Start starts the cluster's gossip.
func (lc *LiveCluster) Start() error { return lc.Cluster.Start() }

// Stop tears the cluster down.
func (lc *LiveCluster) Stop() { lc.Cluster.Stop() }

// Step moves the cluster through one cycle: the spec's churn event for
// the cycle lands first (real joins and kills), then the cycle's fault
// transitions (matching the simulator's churn-then-faults order), then
// one gossip period elapses — on the wall clock under RealTime, as a
// virtual Advance otherwise. Cycles are numbered from 0 like the
// simulator's.
func (lc *LiveCluster) Step(cycle int) error {
	if err := lc.applyChurn(cycle); err != nil {
		return err
	}
	if err := lc.applyFaults(cycle); err != nil {
		return err
	}
	if lc.RealTime {
		time.Sleep(lc.Period)
		return nil
	}
	return lc.Cluster.Advance(lc.Period)
}

// applyFaults installs the cycle's message faults on the live
// cluster's network, then applies drift and byzantine attribute changes
// through the same fault.Applier the simulator uses.
func (lc *LiveCluster) applyFaults(cycle int) error {
	p := lc.cfg.Faults
	if p.Empty() {
		return nil
	}
	delay := lc.Period
	if ch := p.ChaosAt(cycle); ch != nil && ch.DelayMS > 0 {
		delay = time.Duration(ch.DelayMS) * time.Millisecond
	}
	if err := lc.Cluster.SetNetFaults(lc.faults.NetAt(cycle), delay); err != nil {
		return err
	}
	if p.Drift == nil && p.Byzantine == nil {
		return nil
	}
	nodes := lc.Cluster.Nodes()
	byID := make(liveNodes, len(nodes))
	members := make([]core.Member, 0, len(nodes))
	for _, n := range nodes {
		id := n.ID()
		byID[id] = n
		members = append(members, core.Member{ID: id, Attr: lc.faults.Real(id, n.SelfEntry().Attr)})
	}
	core.SortMembers(members)
	lc.faults.Apply(cycle, members, byID)
	return nil
}

// liveNodes adapts the cluster's live nodes to fault.Nodes.
type liveNodes map[core.ID]*runtime.Node

func (ns liveNodes) Attr(id core.ID) core.Attr { return ns[id].SelfEntry().Attr }

func (ns liveNodes) SetAttr(id core.ID, a core.Attr) { ns[id].SetAttr(a) }
