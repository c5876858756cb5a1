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
// grouping is a pure function of (salt, ID); chaos loss on view
// exchanges is a trailing draw on the node's membership stream, and
// chaos on protocol envelopes draws in the serial sections on the
// engine's stream — so faults keep the worker-count bit-invariance.

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
// before the membership phase: caches the cycle's partition/chaos
// windows and applies the attribute faults. It reports whether any
// node attribute changed (so Step can invalidate the self-entry cache).
func (e *Engine) applyFaults() (changed bool) {
	p := e.cfg.Faults
	if p.Empty() {
		return false
	}
	e.partNow = p.PartitionAt(e.cycle)
	e.chaosNow = p.ChaosAt(e.cycle)
	return e.faults.Apply(e.cycle, e.members, (*simNodes)(e))
}

// partitionBlocks reports whether a message from a to b crosses an open
// partition this cycle. Pure against per-cycle state (partNow, the
// salt), so parallel compute phases may call it freely.
func (e *Engine) partitionBlocks(a, b core.ID) bool {
	return e.partNow != nil && e.partNow.Crosses(e.faults.PartitionSalt(), uint64(a), uint64(b))
}

// recordPollution appends the cycle's slice-pollution sample. believed
// is in e.members order.
func (e *Engine) recordPollution(believed []int) {
	p, ok := e.faults.Pollution(len(e.members), func(i int) (core.ID, int) {
		return e.members[i].ID, believed[i]
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
