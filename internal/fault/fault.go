// Package fault is the seeded fault-injection plane shared by both
// backends. Which nodes drift and by how much, which nodes lie and what
// they claim, and which side of a partition a node lands on are pure
// functions of (salt, node id[, cycle]). Attribute faults (drift and
// lies) are applied by one Applier that both engines call, so the same
// seed moves and corrupts the same nodes identically on both. Both
// engines' networks ask one Net whether a message crosses a partition
// and whether chaos drops, delays or duplicates it: pure functions of
// the message, never a draw on an engine's stream. No shared mutable
// RNG is consulted from parallel code, which keeps the simulator's
// worker-count bit-invariance contract intact.
//
// A Plan is both the engine-level shape and its JSON form: a scenario
// Spec carries one as its faults block.
package fault

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/gossipkit/slicing/internal/core"
)

// Window is a half-open cycle interval [From, To). To <= 0 means the
// window never closes. Each fault family embeds one, so its bounds
// read "from" and "until" in JSON.
type Window struct {
	From int `json:"from,omitempty"`
	To   int `json:"until,omitempty"`
}

// Contains reports whether cycle c falls inside the window.
func (w Window) Contains(c int) bool {
	return c >= w.From && (w.To <= 0 || c < w.To)
}

// Salt kinds: each fault family hashes node ids under its own salt so
// that, e.g., the drift cohort and the liar cohort of the same seed are
// independent draws. The constants are arbitrary odd mixers.
const (
	saltDrift     int64 = 0x6A09E667F3BCC909
	saltByzantine int64 = -0x4AB1F58B7E2D3C4B
	saltPartition int64 = 0x3C6EF372FE94F82B
	saltChaos     int64 = -0x5AB00AC5E5A5D0E1
)

// DriftSalt derives the drift-cohort salt for a run seed.
func DriftSalt(seed int64) int64 { return seed ^ saltDrift }

// ByzantineSalt derives the liar-cohort salt for a run seed.
func ByzantineSalt(seed int64) int64 { return seed ^ saltByzantine }

// PartitionSalt derives the partition-grouping salt for a run seed.
func PartitionSalt(seed int64) int64 { return seed ^ saltPartition }

// ChaosSalt derives the message-chaos salt for a run seed.
func ChaosSalt(seed int64) int64 { return seed ^ saltChaos }

// hash01 maps (salt, id) to a uniform float64 in [0, 1).
func hash01(salt int64, id uint64) float64 {
	h := core.Mix64(core.Mix64(uint64(salt)) ^ core.Mix64(id))
	return float64(h>>11) / (1 << 53)
}

// Unit maps (salt, id, cycle) to a uniform float64 in [0, 1) — the
// per-cycle variant of hash01. Drift walk steps and lie jitter draw
// from it on both engines.
func Unit(salt int64, id, cycle uint64) float64 {
	h := core.Mix64(core.Mix64(uint64(salt)) ^ core.Mix64(id) ^ core.Mix64(cycle*core.Golden))
	return float64(h>>11) / (1 << 53)
}

// Select reports whether id is in the frac-sized cohort under salt.
// Membership is static for the run: the same node is selected at every
// cycle, which is what cohort-based faults (drift, byzantine) need.
func Select(salt int64, id uint64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	return hash01(salt, id) < frac
}

// Group assigns id to one of n partition groups under salt. n <= 1
// degenerates to a single group (no partition).
func Group(salt int64, id uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(core.Mix64(core.Mix64(uint64(salt))^core.Mix64(id)) % uint64(n))
}

// DriftKind selects a drift schedule shape.
type DriftKind uint8

const (
	// DriftWalk applies an independent uniform step in [-Amp, +Amp] to
	// each cohort node every Every cycles while the window is open.
	DriftWalk DriftKind = iota + 1
	// DriftStep applies a one-time +Amp shift when the window opens.
	DriftStep
	// DriftOscillate moves cohort attributes along Amp·sin(2πt/Period),
	// applied incrementally so the schedule is stateless.
	DriftOscillate
)

var driftKindNames = [...]string{DriftWalk: "walk", DriftStep: "step", DriftOscillate: "oscillate"}

// MarshalText renders the kind as walk, step or oscillate.
func (k DriftKind) MarshalText() ([]byte, error) {
	return nameOf(driftKindNames[:], int(k), ErrDriftKind)
}

// UnmarshalText accepts walk, step or oscillate.
func (k *DriftKind) UnmarshalText(b []byte) error {
	i, err := parseName(driftKindNames[:], b, ErrDriftKind)
	*k = DriftKind(i)
	return err
}

// Drift mutates the attributes of a Frac-sized node cohort mid-run.
type Drift struct {
	Kind DriftKind `json:"kind"`
	Window
	// Frac is the cohort fraction in (0, 1].
	Frac float64 `json:"frac"`
	// Amp is the attribute amplitude: walk step half-width, step shift,
	// or oscillation amplitude.
	Amp float64 `json:"amp"`
	// Period is the oscillation period in cycles (DriftOscillate only).
	Period int `json:"period,omitempty"`
	// Every applies walk steps only on cycles ≡ 0 (mod Every); 0 or 1
	// means every cycle (DriftWalk only).
	Every int `json:"every,omitempty"`
}

// Applies reports whether the schedule perturbs attributes at cycle c.
func (d *Drift) Applies(c int) bool {
	if d == nil || !d.Window.Contains(c) {
		return false
	}
	switch d.Kind {
	case DriftStep:
		return c == d.Window.From
	case DriftWalk:
		if d.Every > 1 {
			return (c-d.Window.From)%d.Every == 0
		}
		return true
	case DriftOscillate:
		return true
	}
	return false
}

// Delta returns the attribute increment for cycle c given a uniform
// draw u in [0, 1). Callers must gate on Applies(c); u is only
// consumed by DriftWalk.
func (d *Drift) Delta(c int, u float64) float64 {
	switch d.Kind {
	case DriftStep:
		return d.Amp
	case DriftWalk:
		return d.Amp * (2*u - 1)
	case DriftOscillate:
		p := float64(d.Period)
		t := float64(c - d.Window.From)
		return d.Amp * (math.Sin(2*math.Pi*(t+1)/p) - math.Sin(2*math.Pi*t/p))
	}
	return 0
}

// LiePolicy selects what attribute a byzantine node impersonates.
type LiePolicy uint8

const (
	// LieAlwaysTop claims an attribute above the population maximum, so
	// every liar converges into the top slice.
	LieAlwaysTop LiePolicy = iota + 1
	// LieRandom claims a uniformly random attribute within the
	// population's range.
	LieRandom
	// LieCollusive claims an attribute inside the TargetSlice's
	// attribute quantile range — a coordinated squat on one slice.
	LieCollusive
)

var liePolicyNames = [...]string{LieAlwaysTop: "always-top", LieRandom: "random", LieCollusive: "collusive"}

// MarshalText renders the policy as always-top, random or collusive.
func (p LiePolicy) MarshalText() ([]byte, error) {
	return nameOf(liePolicyNames[:], int(p), ErrByzPolicy)
}

// UnmarshalText accepts always-top, random or collusive.
func (p *LiePolicy) UnmarshalText(b []byte) error {
	i, err := parseName(liePolicyNames[:], b, ErrByzPolicy)
	*p = LiePolicy(i)
	return err
}

// nameOf and parseName map an enum value to and from its JSON name,
// names[value]; value 0 is unset and has no name.
func nameOf(names []string, i int, err error) ([]byte, error) {
	if i < 1 || i >= len(names) {
		return nil, fmt.Errorf("%w, got %d", err, i)
	}
	return []byte(names[i]), nil
}

func parseName(names []string, b []byte, err error) (int, error) {
	for i := 1; i < len(names); i++ {
		if names[i] == string(b) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w, got %q", err, b)
}

// Byzantine makes a Frac-sized cohort misreport its attribute in all
// outgoing protocol traffic while the window is open. The engines
// implement this as impersonation — the node's protocol state adopts
// the lie, while ground-truth bookkeeping keeps the real attribute —
// which covers both the ranking estimator feed and the ordering swap
// currency.
type Byzantine struct {
	Policy LiePolicy `json:"policy"`
	Window
	// Frac is the liar fraction in (0, 1].
	Frac float64 `json:"frac"`
	// TargetSlice is the slice collusive liars squat on, in [0, slices);
	// nil means the top slice.
	TargetSlice *int `json:"targetSlice,omitempty"`
}

// Target resolves TargetSlice against a partition with slices slices.
func (b *Byzantine) Target(slices int) int {
	if b.TargetSlice != nil {
		return *b.TargetSlice
	}
	return slices - 1
}

// Partition splits the population into Groups seeded groups and drops
// every cross-group message while the window is open, then heals.
type Partition struct {
	Window
	// Groups is the number of seeded groups (≥ 2).
	Groups int `json:"groups"`
}

// Crosses reports whether a message from a to b crosses group lines at
// an active partition under salt.
func (p *Partition) Crosses(salt int64, a, b uint64) bool {
	return Group(salt, a, p.Groups) != Group(salt, b, p.Groups)
}

// Chaos is one message-level fault window: extra loss, duplication and
// delay layered on the transport's own seeded draws.
type Chaos struct {
	Window
	// Loss is the extra per-message drop probability in [0, 1].
	Loss float64 `json:"loss,omitempty"`
	// Dup is the per-message duplication probability in [0, 1].
	Dup float64 `json:"dup,omitempty"`
	// Delay is the per-message delay-spike probability in [0, 1] (see
	// Decide). In the simulator a delayed message slips to end-of-cycle
	// delivery; live it gains DelayMS extra latency (one gossip period
	// when DelayMS is 0).
	Delay float64 `json:"delay,omitempty"`
	// DelayMS is the live-backend delay spike in milliseconds, at most
	// what a time.Duration holds.
	DelayMS int `json:"delayMS,omitempty"`
}

// Decide is the chaos verdict on one message: whether it is dropped,
// delayed and duplicated — independent draws at Loss, Delay and Dup,
// each a pure hash of (salt, from, to, key). key tells apart the
// messages one sender sends one receiver. A dropped message ignores the
// other two verdicts.
func (c *Chaos) Decide(salt int64, from, to core.ID, key uint64) (drop, delay, dup bool) {
	h := core.Mix64(uint64(salt) ^ core.Mix64(uint64(from)))
	h = core.Mix64(h ^ core.Mix64(uint64(to)))
	h = core.Mix64(h ^ key)
	u := func(i uint64) float64 { return float64(core.Mix64(h+i*core.Golden)>>11) / (1 << 53) }
	return u(1) < c.Loss, u(2) < c.Delay, u(3) < c.Dup
}

// Net is the message-fault state of one cycle, what both engines'
// networks ask about every send: the open partition and chaos windows
// (nil when closed) with the run's salt for each. The zero Net passes
// everything.
type Net struct {
	Part      *Partition
	PartSalt  int64
	Chaos     *Chaos
	ChaosSalt int64
}

// Blocks reports whether the open partition black-holes a message
// from→to.
func (n *Net) Blocks(from, to core.ID) bool {
	return n.Part != nil && n.Part.Crosses(n.PartSalt, uint64(from), uint64(to))
}

// Decide is the open chaos window's verdict on a message (see
// Chaos.Decide); with no window open nothing fires. The simulator keys
// a message on its cycle and its index among its sender's sends that
// cycle, the live scheduler on its sequence number for the send.
func (n *Net) Decide(from, to core.ID, key uint64) (drop, delay, dup bool) {
	if n.Chaos == nil {
		return false, false, false
	}
	return n.Chaos.Decide(n.ChaosSalt, from, to, key)
}

// Plan is a run's full fault schedule. A nil Plan (or any nil family
// pointer) injects nothing. The same plan drives both engines.
type Plan struct {
	Drift     *Drift     `json:"drift,omitempty"`
	Byzantine *Byzantine `json:"byzantine,omitempty"`
	Partition *Partition `json:"partition,omitempty"`
	// Chaos windows inject message loss, duplication and delay spikes;
	// the first open one applies.
	Chaos []Chaos `json:"chaos,omitempty"`
}

// ChaosAt returns the first chaos window open at cycle c, or nil.
func (p *Plan) ChaosAt(c int) *Chaos {
	if p == nil {
		return nil
	}
	for i := range p.Chaos {
		if p.Chaos[i].Window.Contains(c) {
			return &p.Chaos[i]
		}
	}
	return nil
}

// ByzantineOf returns the plan's byzantine family nil-safely.
func (p *Plan) ByzantineOf() *Byzantine {
	if p == nil {
		return nil
	}
	return p.Byzantine
}

// PartitionAt returns the partition if it is open at cycle c, else nil.
func (p *Plan) PartitionAt(c int) *Partition {
	if p == nil || p.Partition == nil || !p.Partition.Window.Contains(c) {
		return nil
	}
	return p.Partition
}

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return p == nil || (p.Drift == nil && p.Byzantine == nil && p.Partition == nil && len(p.Chaos) == 0)
}

// Validation errors.
var (
	ErrDriftKind    = errors.New("fault: drift kind must be walk, step or oscillate")
	ErrDriftFrac    = errors.New("fault: drift frac must be in (0, 1]")
	ErrDriftAmp     = errors.New("fault: drift amp must be positive and finite")
	ErrDriftPeriod  = errors.New("fault: oscillating drift needs period >= 2 cycles")
	ErrByzPolicy    = errors.New("fault: byzantine policy must be always-top, random or collusive")
	ErrByzFrac      = errors.New("fault: byzantine frac must be in (0, 1]")
	ErrByzTarget    = errors.New("fault: byzantine targetSlice must name a slice, in [0, slices)")
	ErrGroups       = errors.New("fault: partition needs at least 2 groups")
	ErrWindow       = errors.New("fault: window must have From >= 0 and To == 0 or To > From")
	ErrChaosProb    = errors.New("fault: chaos loss/dup/delay must be probabilities in [0, 1]")
	ErrChaosDelayMS = errors.New("fault: chaos delayMs must be non-negative and fit a time.Duration")
)

func checkWindow(w Window) error {
	if w.From < 0 || (w.To != 0 && w.To <= w.From) {
		return ErrWindow
	}
	return nil
}

// Validate checks the plan's parameters for a run cut into slices
// slices.
func (p *Plan) Validate(slices int) error {
	if p == nil {
		return nil
	}
	if d := p.Drift; d != nil {
		if d.Kind < DriftWalk || d.Kind > DriftOscillate {
			return ErrDriftKind
		}
		if d.Frac <= 0 || d.Frac > 1 {
			return ErrDriftFrac
		}
		if d.Amp <= 0 || math.IsInf(d.Amp, 0) || math.IsNaN(d.Amp) {
			return ErrDriftAmp
		}
		if d.Kind == DriftOscillate && d.Period < 2 {
			return ErrDriftPeriod
		}
		if err := checkWindow(d.Window); err != nil {
			return err
		}
	}
	if b := p.Byzantine; b != nil {
		if b.Policy < LieAlwaysTop || b.Policy > LieCollusive {
			return ErrByzPolicy
		}
		if b.Frac <= 0 || b.Frac > 1 {
			return ErrByzFrac
		}
		if t := b.TargetSlice; t != nil && (*t < 0 || *t >= slices) {
			return ErrByzTarget
		}
		if err := checkWindow(b.Window); err != nil {
			return err
		}
	}
	if pt := p.Partition; pt != nil {
		if pt.Groups < 2 {
			return ErrGroups
		}
		if err := checkWindow(pt.Window); err != nil {
			return err
		}
	}
	for i := range p.Chaos {
		c := &p.Chaos[i]
		if bad(c.Loss) || bad(c.Dup) || bad(c.Delay) {
			return ErrChaosProb
		}
		if c.Loss == 0 && c.Dup == 0 && c.Delay == 0 {
			return fmt.Errorf("fault: chaos window %d injects nothing (loss=dup=delay=0)", i)
		}
		if c.DelayMS < 0 || int64(c.DelayMS) > math.MaxInt64/int64(time.Millisecond) {
			return ErrChaosDelayMS
		}
		if err := checkWindow(c.Window); err != nil {
			return err
		}
	}
	return nil
}

func bad(p float64) bool { return p < 0 || p > 1 || math.IsNaN(p) }
