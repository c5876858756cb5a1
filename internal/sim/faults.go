package sim

import (
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/metrics"
)

// This file is the simulator's side of the fault plane (Config.Faults).
// Drift and byzantine lies go through the fault.Applier the live
// backend uses too; the simulator supplies node access (simNodes) and
// applies partition and chaos windows on its own network. Partition
// grouping is a pure function of (salt, ID), and the chaos verdict on a
// message is a pure function of (salt, sender, receiver, cycle, the
// message's index among its sender's sends) — no engine stream is
// drawn, so faults keep the worker-count bit-invariance.

// FaultCounts tallies the injections a run performed, cumulatively.
type FaultCounts = fault.Counts

// FaultTally returns the cumulative injection counters.
func (e *Engine) FaultTally() FaultCounts { return e.faults.Counts }

// Pollution returns the per-cycle slice-pollution series: the fraction
// of the byzantine target slice's believed occupants that are liars.
// Empty unless the plan has a Byzantine family.
func (e *Engine) Pollution() metrics.Series { return e.pollution }

// simNodes adapts the engine to fault.Nodes through the slot table.
type simNodes Engine

func (n *simNodes) Attr(id core.ID) core.Attr { return (*Engine)(n).memberAt(n.slots[id]).Attr }

func (n *simNodes) SetAttr(id core.ID, a core.Attr) { (*Engine)(n).setAttrAt(n.slots[id], a) }

// applyFaults runs the cycle's serial fault step, after churn and
// before the membership phase: caches the cycle's message faults and
// applies the attribute faults.
func (e *Engine) applyFaults() {
	if e.cfg.Faults.Empty() {
		return
	}
	e.net = e.faults.NetAt(e.cycle)
	e.faults.Apply(e.cycle, e.members, (*simNodes)(e))
}

// chaos is the cycle's chaos verdict on the message from→to that is its
// sender's idx-th send of the cycle: 0 is the view request, 1 a swap
// request, 1 and 2 the two ranking UPDs. Pure, so parallel compute
// phases may call it freely.
func (e *Engine) chaos(from, to core.ID, idx uint64) (drop, delay, dup bool) {
	return e.net.Decide(from, to, uint64(e.cycle)<<2|idx)
}

// recordPollution appends the cycle's slice-pollution sample. believed
// is in e.members order.
func (e *Engine) recordPollution(believed []int32) {
	p, ok := e.faults.Pollution(len(e.members), func(i int) (core.ID, int) {
		return e.members[i].ID, int(believed[i])
	})
	if !ok {
		return
	}
	e.pollution.Add(e.cycle, p)
	if e.tel != nil {
		e.tel.pollution.Set(p)
	}
}

// publishFaultTelemetry adds the injection deltas since the previous
// cycle to the labeled fault counters.
func (e *Engine) publishFaultTelemetry() {
	if e.tel == nil {
		return
	}
	cur, prev := e.faults.Counts, e.prevFC
	e.tel.faults[faultIxDrift].Add(cur.DriftPerturbations - prev.DriftPerturbations)
	e.tel.faults[faultIxLie].Add(cur.LiesInstalled - prev.LiesInstalled)
	e.tel.faults[faultIxPartDrop].Add(cur.PartitionDrops - prev.PartitionDrops)
	e.tel.faults[faultIxChaosDrop].Add(cur.ChaosDrops - prev.ChaosDrops)
	e.tel.faults[faultIxChaosDup].Add(cur.ChaosDups - prev.ChaosDups)
	e.tel.faults[faultIxChaosDelay].Add(cur.ChaosDelays - prev.ChaosDelays)
	e.prevFC = cur
}
