package scenario

import (
	"math/rand"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/metrics"
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

	// Fault-driving state (cfg.Faults): the per-family salts, the
	// currently-lying nodes with their real attributes (ground truth for
	// disorder measures), and the open/closed edge trackers for the
	// partition and chaos windows.
	faults                       *fault.Plan
	saltDrift, saltByz, saltPart int64
	lying                        map[core.ID]core.Attr
	partOpen, chaosOn            bool
	driftPerturbs, liesInstalled uint64
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

// MaterializeLive builds and starts the live cluster a spec describes.
// The caller owns the result and must Stop it. Simulation-only knobs
// (uniform-oracle membership, artificial concurrency) are rejected,
// exactly as by the live backend.
func MaterializeLive(spec Spec) (*LiveCluster, error) {
	return MaterializeLiveWith(spec, Instrumentation{})
}

// MaterializeLiveWith is MaterializeLive with observability hooks
// attached to the cluster before it starts.
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
	switch cfg.Membership {
	case sim.NewscastViews:
		ccfg.Membership = runtime.NewscastViews
	default:
		ccfg.Membership = runtime.CyclonViews
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
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
		faults:    cfg.Faults,
		saltDrift: fault.DriftSalt(cfg.Seed),
		saltByz:   fault.ByzantineSalt(cfg.Seed),
		saltPart:  fault.PartitionSalt(cfg.Seed),
		lying:     make(map[core.ID]core.Attr),
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
	if lc.cfg.Schedule != nil && lc.cfg.Pattern != nil {
		if err := applyLiveChurn(lc.Cluster, lc.cfg, lc.rng, cycle); err != nil {
			return err
		}
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

// applyFaults drives the cycle's fault-plane transitions on the live
// cluster: partition open/heal and chaos window edges on the network,
// drift and byzantine attribute changes on the nodes. Every decision is
// the same pure (salt, id[, cycle]) function the simulator uses, so a
// live chaos run reproduces per seed.
func (lc *LiveCluster) applyFaults(cycle int) error {
	p := lc.faults
	if p.Empty() {
		return nil
	}
	if pt := p.PartitionAt(cycle); pt != nil {
		if !lc.partOpen {
			if err := lc.Cluster.SetPartition(lc.saltPart, pt.Groups); err != nil {
				return err
			}
			lc.partOpen = true
		}
	} else if lc.partOpen {
		lc.Cluster.HealPartition()
		lc.partOpen = false
	}
	if ch := p.ChaosAt(cycle); ch != nil {
		delay := time.Duration(ch.DelayMS) * time.Millisecond
		if delay == 0 {
			delay = lc.Period
		}
		if err := lc.Cluster.SetChaos(ch.Loss, ch.Dup, ch.Delay, delay); err != nil {
			return err
		}
		lc.chaosOn = true
	} else if lc.chaosOn {
		lc.Cluster.ClearChaos()
		lc.chaosOn = false
	}
	lc.applyDrift(cycle, p.Drift)
	lc.applyByzantine(cycle, p.ByzantineOf())
	return nil
}

// applyDrift perturbs the drift cohort's attributes. A lying node's
// REAL attribute (tracked in lc.lying) moves instead of its advertised
// lie, so drift surfaces when the lie is lifted — same rule as the
// simulator.
func (lc *LiveCluster) applyDrift(cycle int, d *fault.Drift) {
	if !d.Applies(cycle) {
		return
	}
	for _, n := range lc.Cluster.Nodes() {
		id := n.ID()
		if !fault.Select(lc.saltDrift, uint64(id), d.Frac) {
			continue
		}
		delta := d.Delta(cycle, fault.Unit(lc.saltDrift, uint64(id), uint64(cycle)))
		if delta == 0 {
			continue
		}
		if real, ok := lc.lying[id]; ok {
			lc.lying[id] = real + core.Attr(delta)
		} else {
			n.SetAttr(n.SelfEntry().Attr + core.Attr(delta))
		}
		lc.driftPerturbs++
	}
}

// applyByzantine reconciles the liar cohort with the lie window:
// installs lies (stashing the real attribute) when it opens, restores
// them when it closes. Idempotent per cycle.
func (lc *LiveCluster) applyByzantine(cycle int, b *fault.Byzantine) {
	if b == nil {
		return
	}
	active := b.Window.Contains(cycle)
	if !active && len(lc.lying) == 0 {
		return
	}
	nodes := lc.Cluster.Nodes()
	byID := make(map[core.ID]*runtime.Node, len(nodes))
	members := make([]core.Member, 0, len(nodes))
	for _, n := range nodes {
		id := n.ID()
		byID[id] = n
		attr := n.SelfEntry().Attr
		if real, ok := lc.lying[id]; ok {
			attr = real
		}
		members = append(members, core.Member{ID: id, Attr: attr})
	}
	core.SortMembers(members)
	// Churn may have killed a liar; its stash must not leak.
	for id := range lc.lying {
		if _, alive := byID[id]; !alive {
			delete(lc.lying, id)
		}
	}
	for _, m := range members {
		n := byID[m.ID]
		_, cur := lc.lying[m.ID]
		want := active && fault.Select(lc.saltByz, uint64(m.ID), b.Frac)
		switch {
		case want:
			lie := liveLieAttr(b, lc.saltByz, m.ID, members, lc.Part)
			if !cur {
				lc.lying[m.ID] = m.Attr
				lc.liesInstalled++
				lc.Cluster.Trace().Record(telemetry.TraceEvent{
					Kind: telemetry.TraceLieSent, Node: uint64(m.ID), Attr: float64(lie),
				})
			}
			if n.SelfEntry().Attr != lie {
				n.SetAttr(lie)
			}
		case cur:
			n.SetAttr(lc.lying[m.ID])
			delete(lc.lying, m.ID)
		}
	}
}

// liveLieAttr mirrors the simulator's lie computation against the
// real-attribute membership: always-top claims above the maximum,
// random claims inside the range, collusive interpolates into the
// target slice's attribute quantile range.
func liveLieAttr(b *fault.Byzantine, salt int64, id core.ID, members []core.Member, part core.Partition) core.Attr {
	n := len(members)
	lo, hi := members[0].Attr, members[n-1].Attr
	switch b.Policy {
	case fault.LieRandom:
		return lo + (hi-lo)*core.Attr(fault.Unit(salt, uint64(id), 2))
	case fault.LieCollusive:
		sl := part.Slice(b.Target(part.Len()))
		rank := sl.Low + (sl.High-sl.Low)*fault.Unit(salt, uint64(id), 3)
		pos := int(rank * float64(n))
		if pos >= n {
			pos = n - 1
		}
		return members[pos].Attr
	default: // LieAlwaysTop
		return hi + 1 + core.Attr(fault.Unit(salt, uint64(id), 1))
	}
}

// GroundTruth rewrites the believed states of currently-lying nodes
// with their stashed real attributes, so disorder measures grade the
// system against the truth the liars are hiding.
func (lc *LiveCluster) GroundTruth(states []metrics.NodeState) []metrics.NodeState {
	if len(lc.lying) == 0 {
		return states
	}
	for i := range states {
		if real, ok := lc.lying[states[i].Member.ID]; ok {
			states[i].Member.Attr = real
		}
	}
	return states
}

// Pollution returns the byzantine slice pollution of the believed
// states — the liar-cohort fraction among the nodes claiming the
// target slice — and whether a byzantine family is configured at all.
func (lc *LiveCluster) Pollution(states []metrics.NodeState) (float64, bool) {
	b := lc.faults.ByzantineOf()
	if b == nil {
		return 0, false
	}
	return metrics.SlicePollution(states, b.Target(lc.Part.Len()), func(id core.ID) bool {
		return fault.Select(lc.saltByz, uint64(id), b.Frac)
	}), true
}

// FaultTally reports the run's cumulative injection counters: the
// driver's own attribute perturbations and lies, plus the cluster
// network's partition and chaos injections.
func (lc *LiveCluster) FaultTally() sim.FaultCounts {
	nf := lc.Cluster.FaultCounts()
	return sim.FaultCounts{
		DriftPerturbations: lc.driftPerturbs,
		LiesInstalled:      lc.liesInstalled,
		PartitionDrops:     nf.PartitionDrops,
		ChaosDrops:         nf.ChaosDrops,
		ChaosDups:          nf.ChaosDups,
		ChaosDelays:        nf.ChaosDelays,
	}
}
