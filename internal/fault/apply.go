package fault

import (
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/telemetry"
)

// Nodes is an engine's access to the attribute each node advertises.
type Nodes interface {
	Attr(id core.ID) core.Attr
	SetAttr(id core.ID, a core.Attr)
}

// Counts tallies the injections a run performed, cumulatively. The
// Applier bumps the attribute-fault fields; each engine's network adds
// its own partition and chaos tallies.
type Counts struct {
	// DriftPerturbations counts individual attribute updates applied by
	// the drift schedule.
	DriftPerturbations uint64
	// LiesInstalled counts honest→lying transitions (a node beginning to
	// impersonate a false attribute).
	LiesInstalled uint64
	// PartitionDrops counts messages and view exchanges suppressed
	// because they crossed an open partition.
	PartitionDrops uint64
	// ChaosDrops / ChaosDups / ChaosDelays count messages lost,
	// duplicated and deferred by chaos windows.
	ChaosDrops  uint64
	ChaosDups   uint64
	ChaosDelays uint64
}

// Applier applies a plan's attribute faults — drift and byzantine lies
// — for either engine, in the engine's serial section. Every decision
// is a pure function of (salt, id[, cycle]) against the real
// attribute-ordered membership, so the same seed moves and corrupts the
// same nodes identically on both engines.
type Applier struct {
	// Counts tallies the run's injections.
	Counts Counts
	// Trace, when non-nil, records a TraceLieSent per installed lie.
	Trace *telemetry.TraceRing

	plan                                    *Plan
	part                                    core.Partition
	saltDrift, saltByz, saltPart, saltChaos int64
	lying                                   map[core.ID]core.Attr // liar → real attribute
}

// NewApplier builds the applier of plan (nil injects nothing) for a run
// seeded seed and sliced by part.
func NewApplier(plan *Plan, seed int64, part core.Partition) *Applier {
	return &Applier{
		plan: plan, part: part,
		saltDrift: DriftSalt(seed), saltByz: ByzantineSalt(seed),
		saltPart: PartitionSalt(seed), saltChaos: ChaosSalt(seed),
		lying: make(map[core.ID]core.Attr),
	}
}

// NetAt returns the message faults open at cycle.
func (a *Applier) NetAt(cycle int) Net {
	return Net{Part: a.plan.PartitionAt(cycle), PartSalt: a.saltPart, Chaos: a.plan.ChaosAt(cycle), ChaosSalt: a.saltChaos}
}

// Apply runs cycle's attribute faults. members is the live membership with
// REAL attributes in attribute order; drift moves it in place and
// re-sorts it, so it stays ground truth. A lying node's drift moves its
// stashed real attribute and surfaces when the lie is lifted. Lies are
// then installed (also on liars that join mid-window), refreshed, or
// lifted when the window closes.
func (a *Applier) Apply(cycle int, members []core.Member, nodes Nodes) {
	if a.plan == nil {
		return
	}
	if d := a.plan.Drift; d.Applies(cycle) {
		moved := false
		for i := range members {
			m := &members[i]
			if !Select(a.saltDrift, uint64(m.ID), d.Frac) {
				continue
			}
			delta := d.Delta(cycle, Unit(a.saltDrift, uint64(m.ID), uint64(cycle)))
			if delta == 0 {
				continue
			}
			m.Attr += core.Attr(delta)
			if _, lies := a.lying[m.ID]; lies {
				a.lying[m.ID] = m.Attr
			} else {
				nodes.SetAttr(m.ID, m.Attr)
			}
			a.Counts.DriftPerturbations++
			moved = true
		}
		if moved {
			core.SortMembers(members)
		}
	}
	b := a.plan.Byzantine
	if b == nil {
		return
	}
	active := b.Window.Contains(cycle)
	if !active && len(a.lying) == 0 {
		return
	}
	for _, m := range members {
		_, cur := a.lying[m.ID]
		switch {
		case active && Select(a.saltByz, uint64(m.ID), b.Frac):
			lie := a.lie(b, m.ID, members)
			if !cur {
				a.lying[m.ID] = m.Attr
				a.Counts.LiesInstalled++
				a.Trace.Record(telemetry.TraceEvent{Kind: telemetry.TraceLieSent, Node: uint64(m.ID), Attr: float64(lie)})
			}
			if nodes.Attr(m.ID) != lie {
				nodes.SetAttr(m.ID, lie)
			}
		case cur:
			nodes.SetAttr(m.ID, m.Attr)
			delete(a.lying, m.ID)
		}
	}
}

// lie computes the attribute a liar claims, as a pure function of
// (salt, id) against the real attribute-ordered membership:
//
//   - always-top: above the population maximum, jittered per liar so
//     lies stay distinct.
//   - random: uniform within the population's attribute range.
//   - collusive: interpolated into the target slice's attribute
//     quantile range — the cohort converges onto one slice.
func (a *Applier) lie(b *Byzantine, id core.ID, members []core.Member) core.Attr {
	n := len(members)
	lo, hi := members[0].Attr, members[n-1].Attr
	switch b.Policy {
	case LieRandom:
		return lo + (hi-lo)*core.Attr(Unit(a.saltByz, uint64(id), 2))
	case LieCollusive:
		sl := a.part.Slice(b.Target(a.part.Len()))
		rank := sl.Low + (sl.High-sl.Low)*Unit(a.saltByz, uint64(id), 3)
		pos := int(rank * float64(n))
		if pos >= n {
			pos = n - 1
		}
		return members[pos].Attr
	default: // LieAlwaysTop
		return hi + 1 + core.Attr(Unit(a.saltByz, uint64(id), 1))
	}
}

// Real returns node id's real attribute given the one it advertises:
// the stashed truth while it lies, advertised otherwise.
func (a *Applier) Real(id core.ID, advertised core.Attr) core.Attr {
	if r, ok := a.lying[id]; ok {
		return r
	}
	return advertised
}

// Forget drops a departed node's stash.
func (a *Applier) Forget(id core.ID) { delete(a.lying, id) }

// Pollution returns the byzantine slice pollution of n nodes, where
// at(i) is node i's ID and believed slice: the liar-cohort fraction of
// the nodes claiming the target slice. Cohort nodes count outside the
// lie window too, so residual pollution decay is measurable. ok is
// false when the plan has no byzantine family.
func (a *Applier) Pollution(n int, at func(i int) (core.ID, int)) (p float64, ok bool) {
	b := a.plan.ByzantineOf()
	if b == nil {
		return 0, false
	}
	target := b.Target(a.part.Len())
	claimed, lying := 0, 0
	for i := 0; i < n; i++ {
		id, slice := at(i)
		if slice != target {
			continue
		}
		claimed++
		if Select(a.saltByz, uint64(id), b.Frac) {
			lying++
		}
	}
	if claimed == 0 {
		return 0, true
	}
	return float64(lying) / float64(claimed), true
}
