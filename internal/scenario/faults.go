package scenario

import "github.com/gossipkit/slicing/internal/fault"

// Fault-spec string enums. Like the protocol/membership enums, specs
// carry strings so a JSON file fully describes a chaos run.
const (
	DriftWalk      = "walk"      // uniform ±amp step per node every `every` cycles
	DriftStep      = "step"      // one-time +amp shift when the window opens
	DriftOscillate = "oscillate" // amp·sin(2πt/period), applied incrementally

	LieAlwaysTop = "always-top" // claim above the population maximum
	LieRandom    = "random"     // claim a random in-range attribute
	LieCollusive = "collusive"  // coordinated squat on targetSlice
)

// FaultsSpec is the serializable fault-injection plan of a run
// (Spec.Faults). Each family is optional; windows are half-open cycle
// intervals [from, until) with until 0 meaning "never closes". The same
// block drives both backends: attribute faults through one
// fault.Applier, partitions and message chaos through each engine's own
// network.
type FaultsSpec struct {
	// Drift mutates the attributes of a node cohort mid-run.
	Drift *DriftSpec `json:"drift,omitempty"`
	// Byzantine makes a node cohort misreport its attribute.
	Byzantine *ByzantineSpec `json:"byzantine,omitempty"`
	// Partition splits the population into non-communicating groups for
	// the window, then heals.
	Partition *PartitionSpec `json:"partition,omitempty"`
	// Chaos windows inject message loss, duplication and delay spikes.
	Chaos []ChaosSpec `json:"chaos,omitempty"`
}

// DriftSpec is one attribute-drift schedule.
type DriftSpec struct {
	// Kind is DriftWalk, DriftStep or DriftOscillate.
	Kind string `json:"kind"`
	// From and Until bound the window in cycles.
	From  int `json:"from,omitempty"`
	Until int `json:"until,omitempty"`
	// Frac is the drifting cohort fraction in (0, 1].
	Frac float64 `json:"frac"`
	// Amp is the attribute amplitude (walk half-width, step shift, or
	// oscillation amplitude).
	Amp float64 `json:"amp"`
	// Period is the oscillation period in cycles (oscillate only).
	Period int `json:"period,omitempty"`
	// Every spaces walk steps (walk only; 0/1 = every cycle).
	Every int `json:"every,omitempty"`
}

// ByzantineSpec is one misreporting regime.
type ByzantineSpec struct {
	// Policy is LieAlwaysTop, LieRandom or LieCollusive.
	Policy string `json:"policy"`
	// From and Until bound the lie window in cycles.
	From  int `json:"from,omitempty"`
	Until int `json:"until,omitempty"`
	// Frac is the liar fraction in (0, 1].
	Frac float64 `json:"frac"`
	// TargetSlice is the slice collusive liars squat on; nil means the
	// top slice.
	TargetSlice *int `json:"targetSlice,omitempty"`
}

// PartitionSpec is one scheduled network partition.
type PartitionSpec struct {
	// From and Until bound the partition window in cycles.
	From  int `json:"from,omitempty"`
	Until int `json:"until,omitempty"`
	// Groups is the number of seeded groups (≥ 2).
	Groups int `json:"groups"`
}

// ChaosSpec is one message-chaos window.
type ChaosSpec struct {
	// From and Until bound the window in cycles.
	From  int `json:"from,omitempty"`
	Until int `json:"until,omitempty"`
	// Loss, Dup and Delay are per-message probabilities in [0, 1].
	Loss  float64 `json:"loss,omitempty"`
	Dup   float64 `json:"dup,omitempty"`
	Delay float64 `json:"delay,omitempty"`
	// DelayMS is the live-backend delay spike in milliseconds, at most
	// what a time.Duration holds (the simulator defers a delayed message
	// to end-of-cycle instead; a live run with DelayMS 0 spikes by one
	// gossip period).
	DelayMS int `json:"delayMS,omitempty"`
}

// plan materializes and validates the fault plan.
func (f *FaultsSpec) plan(name string) (*fault.Plan, error) {
	if f == nil {
		return nil, nil
	}
	p := &fault.Plan{}
	if d := f.Drift; d != nil {
		fd := &fault.Drift{
			Window: fault.Window{From: d.From, To: d.Until},
			Frac:   d.Frac, Amp: d.Amp, Period: d.Period, Every: d.Every,
		}
		switch d.Kind {
		case DriftWalk:
			fd.Kind = fault.DriftWalk
		case DriftStep:
			fd.Kind = fault.DriftStep
		case DriftOscillate:
			fd.Kind = fault.DriftOscillate
		default:
			return nil, specErr("%s: unknown drift kind %q", name, d.Kind)
		}
		p.Drift = fd
	}
	if b := f.Byzantine; b != nil {
		fb := &fault.Byzantine{
			Window: fault.Window{From: b.From, To: b.Until},
			Frac:   b.Frac, TargetSlice: -1,
		}
		if b.TargetSlice != nil {
			fb.TargetSlice = *b.TargetSlice
		}
		switch b.Policy {
		case LieAlwaysTop:
			fb.Policy = fault.LieAlwaysTop
		case LieRandom:
			fb.Policy = fault.LieRandom
		case LieCollusive:
			fb.Policy = fault.LieCollusive
		default:
			return nil, specErr("%s: unknown lie policy %q", name, b.Policy)
		}
		p.Byzantine = fb
	}
	if pt := f.Partition; pt != nil {
		p.Partition = &fault.Partition{
			Window: fault.Window{From: pt.From, To: pt.Until},
			Groups: pt.Groups,
		}
	}
	for _, c := range f.Chaos {
		p.Chaos = append(p.Chaos, fault.Chaos{
			Window: fault.Window{From: c.From, To: c.Until},
			Loss:   c.Loss, Dup: c.Dup, Delay: c.Delay, DelayMS: c.DelayMS,
		})
	}
	if err := p.Validate(); err != nil {
		return nil, specErr("%s (faults): %v", name, err)
	}
	return p, nil
}

// scaleCycleWindow shrinks a [from, until) cycle window by ratio,
// keeping at least one open cycle.
func scaleCycleWindow(from, until int, ratio float64) (int, int) {
	f := int(float64(from) * ratio)
	if until <= 0 {
		return f, until
	}
	u := scaledInt(until, ratio, 1)
	if u <= f {
		u = f + 1
	}
	return f, u
}

// scaled deep-copies the block with every cycle quantity shrunk by the
// run's effective cycle ratio, so windows keep their position within
// the shortened run instead of sliding off its end.
func (f *FaultsSpec) scaled(ratio float64) *FaultsSpec {
	c := f.clone()
	if d := c.Drift; d != nil {
		d.From, d.Until = scaleCycleWindow(d.From, d.Until, ratio)
		if d.Period > 0 {
			d.Period = scaledInt(d.Period, ratio, 2)
		}
		if d.Every > 1 {
			d.Every = scaledInt(d.Every, ratio, 1)
		}
	}
	if b := c.Byzantine; b != nil {
		b.From, b.Until = scaleCycleWindow(b.From, b.Until, ratio)
	}
	if pt := c.Partition; pt != nil {
		pt.From, pt.Until = scaleCycleWindow(pt.From, pt.Until, ratio)
	}
	for i := range c.Chaos {
		ch := &c.Chaos[i]
		ch.From, ch.Until = scaleCycleWindow(ch.From, ch.Until, ratio)
	}
	return c
}

// clone deep-copies the block.
func (f *FaultsSpec) clone() *FaultsSpec {
	if f == nil {
		return nil
	}
	c := *f
	if f.Drift != nil {
		d := *f.Drift
		c.Drift = &d
	}
	if f.Byzantine != nil {
		b := *f.Byzantine
		if b.TargetSlice != nil {
			t := *b.TargetSlice
			b.TargetSlice = &t
		}
		c.Byzantine = &b
	}
	if f.Partition != nil {
		p := *f.Partition
		c.Partition = &p
	}
	c.Chaos = append([]ChaosSpec(nil), f.Chaos...)
	return &c
}
