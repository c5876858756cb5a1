// Package churn models the continuous arrival and departure of nodes
// (§3.3 of the paper). A churn specification combines a Schedule — when
// and how many nodes leave and join — with a Pattern — which nodes leave
// and what attribute values joiners bring.
//
// The paper's dynamic experiments (§5.3.3) use churn correlated with the
// attribute value: departing nodes are those with the lowest attribute
// values and arriving nodes have attribute values higher than everyone
// currently in the system, modelling an attribute such as uptime or
// session duration. Fig. 6(c) applies it as a burst (0.1% join + 0.1%
// leave per cycle for the first 200 cycles); Fig. 6(d) as a low regular
// rate (0.1% every 10 cycles).
package churn

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
)

// Event is the churn to apply at one cycle.
type Event struct {
	// Leave is the number of nodes departing.
	Leave int
	// Join is the number of nodes arriving.
	Join int
}

// Schedule decides the churn volume per cycle. Implementations are pure
// so a seeded simulation stays reproducible.
type Schedule interface {
	// At returns the event for a cycle, given the current system size.
	At(cycle, n int) Event
	fmt.Stringer
}

// Flat applies LeaveRate·n leaves and JoinRate·n joins, either every
// cycle (Every ≤ 1) or every Every-th cycle, skipping cycle 0. The zero
// Flat is the static system. Equal rates give the paper's schedules:
// Fig. 6(d) is Flat{0.001, 0.001, 10}, and Fig. 6(c)'s burst is
// Flat{0.001, 0.001, 0} bounded to 200 cycles by a Compose phase.
// Independent rates express one-sided churn: a join flood (flash
// crowd) or a pure departure wave.
type Flat struct {
	// JoinRate and LeaveRate are fractions of the current system size.
	JoinRate  float64
	LeaveRate float64
	// Every spaces events Every cycles apart; 0 or 1 means every cycle.
	Every int
}

// At implements Schedule.
func (f Flat) At(cycle, n int) Event {
	if f.Every > 1 && (cycle == 0 || cycle%f.Every != 0) {
		return Event{}
	}
	return Event{Leave: count(f.LeaveRate, n), Join: count(f.JoinRate, n)}
}

// String implements fmt.Stringer.
func (f Flat) String() string {
	s := fmt.Sprintf("flat(join=%.2g%%,leave=%.2g%%", f.JoinRate*100, f.LeaveRate*100)
	if f.Every > 1 {
		s += fmt.Sprintf(" every %d cycles", f.Every)
	}
	return s + ")"
}

// Phase is one segment of a composed schedule: an inner schedule applied
// for a bounded number of cycles. The inner schedule sees phase-local
// cycle numbers, so any Schedule can be sequenced without knowing its
// offset in the run.
type Phase struct {
	// Schedule drives churn while the phase is active. nil means no churn.
	Schedule Schedule
	// Cycles is the phase duration; a value ≤ 0 makes the phase run
	// forever (it must be last — later phases are unreachable).
	Cycles int
}

// Compose sequences schedules into phases — e.g. a burst followed by
// steady low churn — so scenario grids can chain regimes without a new
// Schedule type per combination. After the last bounded phase ends the
// system is static.
func Compose(phases ...Phase) Schedule { return composed{phases: phases} }

type composed struct {
	phases []Phase
}

// At implements Schedule: it locates the phase containing cycle and
// delegates with a phase-local cycle number.
func (c composed) At(cycle, n int) Event {
	offset := 0
	for _, p := range c.phases {
		if p.Cycles <= 0 || cycle < offset+p.Cycles {
			if p.Schedule == nil {
				return Event{}
			}
			return p.Schedule.At(cycle-offset, n)
		}
		offset += p.Cycles
	}
	return Event{}
}

// String implements fmt.Stringer.
func (c composed) String() string {
	parts := make([]string, len(c.phases))
	for i, p := range c.phases {
		inner := "none"
		if p.Schedule != nil {
			inner = p.Schedule.String()
		}
		if p.Cycles > 0 {
			parts[i] = fmt.Sprintf("%s×%d", inner, p.Cycles)
		} else {
			parts[i] = inner
		}
	}
	return "compose(" + strings.Join(parts, " then ") + ")"
}

// count converts a fractional rate to a node count, rounding to nearest
// and never below 1 for a positive rate on a non-empty system (the
// paper's 0.1% of 10⁴ nodes is exactly 10).
func count(rate float64, n int) int {
	if rate <= 0 || n == 0 {
		return 0
	}
	k := int(rate*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// Pattern decides which nodes leave and what attributes joiners carry.
type Pattern interface {
	// PickLeavers returns the identifiers of count members to remove.
	// members is sorted by the attribute-based total order.
	PickLeavers(rng *rand.Rand, members []core.Member, count int) []core.ID
	// JoinAttr draws the attribute value of one arriving node. members
	// is the pre-event membership, sorted by the attribute-based total
	// order: every joiner of one event draws against the same snapshot
	// (the simulator sorts the membership once per event, not once per
	// joiner).
	JoinAttr(rng *rand.Rand, members []core.Member) core.Attr
	fmt.Stringer
}

// Correlated is the paper's attribute-correlated churn: the nodes with
// the lowest attribute values leave, and arriving nodes draw attribute
// values strictly above the current maximum (max + Uniform(0, Spread]).
type Correlated struct {
	// Spread scales the gap between the current maximum attribute and a
	// joiner's value. Any positive value preserves the paper's semantics.
	Spread float64
}

// PickLeavers implements Pattern: the count lowest-attribute members.
func (c Correlated) PickLeavers(_ *rand.Rand, members []core.Member, count int) []core.ID {
	if count > len(members) {
		count = len(members)
	}
	ids := make([]core.ID, count)
	for i := 0; i < count; i++ {
		ids[i] = members[i].ID
	}
	return ids
}

// JoinAttr implements Pattern: strictly above the current maximum.
func (c Correlated) JoinAttr(rng *rand.Rand, members []core.Member) core.Attr {
	spread := c.Spread
	if spread <= 0 {
		spread = 1
	}
	max := 0.0
	if len(members) > 0 {
		max = float64(members[len(members)-1].Attr)
	}
	return core.Attr(max + spread*(1-rng.Float64())) // (max, max+spread]
}

// String implements fmt.Stringer.
func (c Correlated) String() string { return "correlated" }

// Uniform is attribute-independent churn: uniformly random members
// leave, and joiners draw from the same attribute distribution as the
// initial population.
type Uniform struct {
	Dist dist.Source
}

// PickLeavers implements Pattern.
func (u Uniform) PickLeavers(rng *rand.Rand, members []core.Member, count int) []core.ID {
	if count > len(members) {
		count = len(members)
	}
	perm := rng.Perm(len(members))[:count]
	sort.Ints(perm)
	ids := make([]core.ID, count)
	for i, p := range perm {
		ids[i] = members[p].ID
	}
	return ids
}

// JoinAttr implements Pattern.
func (u Uniform) JoinAttr(rng *rand.Rand, _ []core.Member) core.Attr {
	return core.Attr(u.Dist.Sample(rng))
}

// String implements fmt.Stringer.
func (u Uniform) String() string { return fmt.Sprintf("uniform(%v)", u.Dist) }
