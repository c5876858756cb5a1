package scenario

import (
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/sim"
)

// LiveBackend executes specs on the live runtime: the spec materializes
// as a cluster of real protocol participants on the sharded scheduler,
// with seeded attribute draws, bootstrap views, optional transport
// latency/loss injection (Spec.Live), and churn phases applied as
// actual joins and crashes on the run's schedule. Metrics are collected
// by periodic snapshot — one SDM sample per gossip period — so the
// resulting series aligns cycle-for-cycle with the simulator's and the
// two engines are directly comparable.
//
// By default the cluster runs in driven virtual time: the same
// concurrent code paths as a wall-clock deployment (worker shards,
// interleaved exchanges, in-flight messages), but no wall time is spent
// waiting for gossip periods, so a 10,000-node live run is
// compute-bound. Set Spec.Live.RealTime for wall-clock pacing.
//
// Two simulator knobs have no live counterpart and are rejected:
// the uniform-oracle membership (a live node has no global view of the
// population) and artificial concurrency (§4.5.2 approximates in the
// cycle model exactly what the live runtime exhibits natively).
type LiveBackend struct {
	// Inst optionally attaches observability hooks (metrics registry,
	// protocol trace ring) to every materialized cluster.
	Inst Instrumentation
}

// Name implements Backend.
func (LiveBackend) Name() string { return BackendLive }

// Run implements Backend.
func (b LiveBackend) Run(spec Spec) (*sim.Result, error) {
	lc, err := MaterializeLiveWith(spec, b.Inst)
	if err != nil {
		return nil, err
	}
	defer lc.Stop()
	c, part, cfg := lc.Cluster, lc.Part, lc.cfg

	res := &sim.Result{
		SDM:             metrics.Series{Name: "sdm"},
		GDM:             metrics.Series{Name: "gdm"},
		UnsuccessfulPct: metrics.Series{Name: "unsuccessful%"},
		Size:            metrics.Series{Name: "n"},
		Pollution:       metrics.Series{Name: "pollution"},
	}
	// One node walk per recorded cycle: per-node states for SDM/GDM/size.
	// On ordering runs the period's unsuccessful-swap percentage of
	// Fig. 4(c) is the difference of two cluster run totals, killed nodes
	// included, exactly like the simulator's. The series must exist on
	// both engines for results to compare record for record.
	var prev ordering.Stats
	record := func(cycle int) {
		nodes := c.Nodes()
		states := make([]metrics.NodeState, 0, len(nodes))
		for _, n := range nodes {
			st := n.Status()
			// A lying node is graded by the attribute it is hiding.
			states = append(states, metrics.NodeState{
				Member:     core.Member{ID: st.ID, Attr: lc.faults.Real(st.ID, st.Attr)},
				R:          st.R,
				SliceIndex: st.SliceIx,
			})
		}
		// Pollution grades the BELIEVED slices.
		if p, ok := lc.faults.Pollution(len(states), func(i int) (core.ID, int) {
			return states[i].Member.ID, states[i].SliceIndex
		}); ok {
			res.Pollution.Add(cycle, p)
		}
		res.SDM.Add(cycle, metrics.SDM(states, part))
		res.Size.Add(cycle, float64(len(states)))
		if spec.RecordGDM {
			res.GDM.Add(cycle, metrics.GDM(states))
		}
		if cfg.Protocol == proto.Ordering {
			st := c.OrderingStats()
			res.UnsuccessfulPct.Add(cycle, st.UnsuccessfulPctSince(prev))
			prev = st
		}
	}
	record(0)
	if err := lc.Start(); err != nil {
		return nil, err
	}

	// One simulated cycle = one gossip period. Churn lands at the start
	// of cycle k (matching the simulator's Step), the period elapses —
	// virtually or on the wall clock — and the snapshot records cycle
	// k+1.
	for cycle := 0; cycle < spec.Cycles; cycle++ {
		if err := lc.Step(cycle); err != nil {
			return nil, err
		}
		record(cycle + 1)
	}

	res.Messages = c.MessageCounts()
	res.FinalN = len(c.Nodes())
	// The network tallies partition and chaos injections, the applier
	// drift and lies.
	res.Faults = c.FaultCounts()
	res.Faults.DriftPerturbations = lc.faults.Counts.DriftPerturbations
	res.Faults.LiesInstalled = lc.faults.Counts.LiesInstalled
	if b.Inst.AtEnd != nil {
		b.Inst.AtEnd(spec, res.FinalN)
	}
	return res, nil
}

// applyChurn executes the cycle's churn event as real cluster
// operations: leavers crash mid-gossip (no goodbye) and take their lie
// stash with them, joiners bootstrap from live views. Both pattern
// calls read the same pre-event attribute-ordered membership, exactly
// like the simulator's churn.
func (lc *LiveCluster) applyChurn(cycle int) error {
	c, cfg := lc.Cluster, &lc.cfg
	if cfg.Schedule == nil || cfg.Pattern == nil {
		return nil
	}
	ev := cfg.Schedule.At(cycle, len(c.Nodes()))
	if ev.Leave == 0 && ev.Join == 0 {
		return nil
	}
	nodes := c.Nodes()
	members := make([]core.Member, 0, len(nodes))
	for _, n := range nodes {
		members = append(members, core.Member{ID: n.ID(), Attr: n.SelfEntry().Attr})
	}
	core.SortMembers(members)
	if ev.Leave > 0 {
		for _, id := range cfg.Pattern.PickLeavers(lc.rng, members, ev.Leave) {
			c.Kill(id)
			lc.faults.Forget(id)
		}
	}
	for i := 0; i < ev.Join; i++ {
		if _, err := c.Join(cfg.Pattern.JoinAttr(lc.rng, members)); err != nil {
			return err
		}
	}
	return nil
}
