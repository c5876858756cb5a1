// Package scenario is the declarative layer between the execution
// engines and every entry point (CLI, examples, CI). A
// Spec names everything one run needs — protocol and policy, system
// size, cycles, attribute distribution, churn schedule, membership
// substrate, seed, metrics cadence, live-runtime tuning — as plain data
// with validation and JSON round-tripping. A registry of named
// scenarios reproduces the paper's figure families (Figs. 4 and 6 of
// ICDCS 2007 / arXiv:cs/0612035) plus extension workloads, and a Runner
// expands scenario grids into runs and fans them across a worker pool
// with deterministic per-run seeds, so a whole evaluation grid is one
// command instead of a hand-wired main per point.
//
// One spec, two engines: a Backend executes a Spec either on the
// cycle-driven simulator (SimBackend — the paper's PeerSim model) or on
// the live runtime (LiveBackend — real protocol participants on a
// sharded scheduler, with churn applied as actual joins and crashes and
// transport latency/loss injected from the spec). Both return the same
// Result shape, so slice-disorder trajectories from the two regimes are
// directly comparable.
package scenario

import (
	"errors"
	"fmt"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/sim"
)

// ErrSpec is wrapped by every spec validation failure.
var ErrSpec = errors.New("scenario: invalid spec")

func specErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
}

// Enumerated spec field values. Specs carry strings rather than the
// internal enums so that a JSON file fully describes a run.
const (
	ProtoOrdering = "ordering"
	ProtoRanking  = "ranking"

	PolicyJK    = "jk"     // original JK: random misplaced neighbor
	PolicyModJK = "mod-jk" // mod-JK: max local gain (the paper's default)

	MemCyclon  = "cyclon"  // §4.3.2 Cyclon variant (default)
	MemUniform = "uniform" // §5.3.2 idealized uniform sampler

	EstCounter = "counter" // unbounded ℓ/g counters (default)
	EstWindow  = "window"  // §5.3.4 sliding window

	PatternCorrelated = "correlated" // lowest-attribute nodes leave (§5.3.3)
	PatternUniform    = "uniform"    // attribute-independent churn
)

// Spec declares one simulation run. The zero value is not runnable; use
// Validate (or Config, which validates) before running. Fields map 1:1
// onto sim.Config, but as JSON-serializable data: a Spec is the unit the
// registry, the sweep runner and the slicebench CLI all exchange.
type Spec struct {
	// Name identifies the run; within a scenario family it doubles as
	// the curve label of the paper plot the run regenerates.
	Name string `json:"name"`
	// Protocol is ProtoOrdering or ProtoRanking.
	Protocol string `json:"protocol"`
	// Policy selects the ordering partner policy; default PolicyModJK.
	Policy string `json:"policy,omitempty"`
	// N is the initial system size.
	N int `json:"n"`
	// Slices is the number of equal slices. Exactly one of Slices and
	// SliceBounds must be set.
	Slices int `json:"slices,omitempty"`
	// SliceBounds are custom partition boundaries in (0,1), ascending.
	SliceBounds []float64 `json:"sliceBounds,omitempty"`
	// ViewSize is the gossip view capacity c.
	ViewSize int `json:"viewSize"`
	// Cycles is the run length.
	Cycles int `json:"cycles"`
	// Membership selects the peer-sampling substrate; default MemCyclon.
	Membership string `json:"membership,omitempty"`
	// Estimator selects the ranking estimator; default EstCounter.
	Estimator string `json:"estimator,omitempty"`
	// WindowSize is the sliding-window size W (EstWindow only).
	WindowSize int `json:"windowSize,omitempty"`
	// Concurrency is the overlapping-message probability (§4.5.2).
	Concurrency float64 `json:"concurrency,omitempty"`
	// StalePayloads freezes overlapping swap payloads at their snapshot
	// (the drift extension).
	StalePayloads bool `json:"stalePayloads,omitempty"`
	// RecordGDM additionally records the global disorder measure.
	RecordGDM bool `json:"recordGDM,omitempty"`
	// Attr draws the initial attribute values.
	Attr DistSpec `json:"attr"`
	// Churn defines the churn regime; nil means a static system.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Faults defines the fault-injection plan (attribute drift,
	// byzantine misreporting, scheduled partitions, message chaos); nil
	// means an honest, fault-free run. Both backends honor it.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Live tunes live-backend execution (gossip period, jitter,
	// transport latency/loss injection); nil uses the live defaults. The
	// sim backend ignores it, so adding Live to a spec never changes its
	// simulated results — the field is purely additive and JSON
	// round-trips with the rest of the spec.
	Live *LiveSpec `json:"live,omitempty"`
	// SimWorkers is the number of compute workers one simulator run
	// spreads its cycles across (sim.Config.Workers). 0 and 1 both mean
	// single-threaded. Results are bit-identical at any value — the
	// engine's worker-count invariance contract — so this is purely a
	// throughput knob: use it to put all cores on ONE big run, and keep
	// it at the default when a sweep already fans runs across a worker
	// pool. The live backend schedules on its own shard pool
	// (Live.Shards) and ignores it.
	SimWorkers int `json:"simWorkers,omitempty"`
	// Seed makes the run reproducible. Sweeps override it with a seed
	// derived from the grid's base seed (see DeriveSeed).
	Seed int64 `json:"seed,omitempty"`
	// SampleEvery thins emitted series to every k-th cycle (0 = all).
	SampleEvery int `json:"sampleEvery,omitempty"`
	// MinN, MinCycles and MinSlices floor Scaled's shrinking so scaled
	// runs keep enough population, time and slices for the qualitative
	// shape to survive. Zero MinN/MinCycles use package defaults; zero
	// MinSlices pins Slices (some figures fix the slice count).
	MinN      int `json:"minN,omitempty"`
	MinCycles int `json:"minCycles,omitempty"`
	MinSlices int `json:"minSlices,omitempty"`
}

// DistSpec is the serializable form of an attribute distribution. Kind
// selects the law; only that law's parameter fields are read.
type DistSpec struct {
	// Kind is one of uniform, pareto, exponential, normal, mixture.
	Kind string `json:"kind"`
	// Lo and Hi bound the uniform law.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Xm and Alpha parameterize the Pareto law.
	Xm    float64 `json:"xm,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	// Mean parameterizes the exponential law; Mean and Stddev the normal.
	Mean   float64 `json:"mean,omitempty"`
	Stddev float64 `json:"stddev,omitempty"`
	// Components define a mixture (weights need not sum to 1; they are
	// normalized).
	Components []WeightedDist `json:"components,omitempty"`
}

// WeightedDist is one mixture component.
type WeightedDist struct {
	Weight float64  `json:"weight"`
	Dist   DistSpec `json:"dist"`
}

// Source materializes the distribution.
func (d DistSpec) Source() (dist.Distribution, error) {
	switch d.Kind {
	case "uniform":
		if d.Hi <= d.Lo {
			return nil, specErr("uniform needs lo < hi, got [%v,%v)", d.Lo, d.Hi)
		}
		return dist.Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "pareto":
		if d.Xm <= 0 || d.Alpha <= 0 {
			return nil, specErr("pareto needs xm > 0 and alpha > 0")
		}
		return dist.Pareto{Xm: d.Xm, Alpha: d.Alpha}, nil
	case "exponential":
		if d.Mean <= 0 {
			return nil, specErr("exponential needs mean > 0")
		}
		return dist.Exponential{Mean: d.Mean}, nil
	case "normal":
		if d.Stddev <= 0 {
			return nil, specErr("normal needs stddev > 0")
		}
		return dist.Normal{Mean: d.Mean, Stddev: d.Stddev}, nil
	case "mixture":
		if len(d.Components) == 0 {
			return nil, specErr("mixture needs components")
		}
		mix := dist.Mixture{}
		for _, c := range d.Components {
			if c.Weight <= 0 {
				return nil, specErr("mixture component weight %v not positive", c.Weight)
			}
			src, err := c.Dist.Source()
			if err != nil {
				return nil, err
			}
			mix.Components = append(mix.Components, dist.Weighted{Weight: c.Weight, Dist: src})
		}
		return mix, nil
	default:
		return nil, specErr("unknown distribution kind %q", d.Kind)
	}
}

// ChurnSpec is the serializable churn regime: a sequence of phases and a
// pattern deciding who leaves and what joiners look like.
type ChurnSpec struct {
	// Phases run in order; see ChurnPhase. A single open-ended phase is
	// the common steady-state case.
	Phases []ChurnPhase `json:"phases"`
	// Pattern selects leavers and joiner attributes.
	Pattern PatternSpec `json:"pattern"`
}

// ChurnPhase is one regime segment: Join/Leave fractions of the current
// population applied every Every cycles (0/1 = every cycle; larger
// values skip the phase's cycle 0) for Cycles cycles
// (0 = rest of the run; only valid for the last phase). A phase with
// zero rates is an explicit quiet period.
type ChurnPhase struct {
	Join   float64 `json:"join,omitempty"`
	Leave  float64 `json:"leave,omitempty"`
	Every  int     `json:"every,omitempty"`
	Cycles int     `json:"cycles,omitempty"`
}

// PatternSpec is the serializable churn pattern.
type PatternSpec struct {
	// Kind is PatternCorrelated or PatternUniform.
	Kind string `json:"kind"`
	// Spread scales correlated joiners' gap above the current maximum.
	Spread float64 `json:"spread,omitempty"`
	// Attr draws uniform-pattern joiner attributes; nil reuses the
	// spec's initial attribute distribution.
	Attr *DistSpec `json:"attr,omitempty"`
}

// LiveSpec is the serializable live-backend tuning of a Spec: how a
// cluster materializes the run when it executes on the live runtime
// instead of the cycle simulator. Zero values mean defaults throughout,
// so a spec without a Live block runs live with sensible settings.
type LiveSpec struct {
	// PeriodMS is the gossip period in milliseconds (DefaultLivePeriodMS
	// when zero). Under virtual time its absolute value only scales the
	// timeline relative to the latency bounds below.
	PeriodMS float64 `json:"periodMS,omitempty"`
	// JitterFrac desynchronizes node periods by ±JitterFrac·Period.
	// Omitted (nil) means the runtime default (0.1); an explicit 0 means
	// strictly periodic nodes.
	JitterFrac *float64 `json:"jitterFrac,omitempty"`
	// MinLatencyMS and MaxLatencyMS bound the uniformly drawn delivery
	// latency injected on the cluster's internal network. Zero delivers
	// at the next scheduling opportunity.
	MinLatencyMS float64 `json:"minLatencyMS,omitempty"`
	MaxLatencyMS float64 `json:"maxLatencyMS,omitempty"`
	// Loss is the probability in [0,1) that a message is silently
	// dropped in transit.
	Loss float64 `json:"loss,omitempty"`
	// Shards overrides the scheduler's worker-shard count (0 = one per
	// core).
	Shards int `json:"shards,omitempty"`
	// RealTime paces the run on the wall clock instead of driven virtual
	// time. Virtual time (the default) executes the identical concurrent
	// code paths but spends no wall time waiting for periods to elapse.
	RealTime bool `json:"realTime,omitempty"`
}

// DefaultLivePeriodMS is the gossip period assumed when a live run's
// spec leaves PeriodMS zero.
const DefaultLivePeriodMS = 10.0

// validate checks the live tuning block.
func (l *LiveSpec) validate(name string) error {
	if l.PeriodMS < 0 {
		return specErr("%s: live periodMS must be ≥ 0", name)
	}
	if l.JitterFrac != nil && (*l.JitterFrac < 0 || *l.JitterFrac >= 1) {
		return specErr("%s: live jitterFrac must lie in [0,1) — a full-period jitter makes periods non-positive", name)
	}
	if l.MinLatencyMS < 0 || l.MaxLatencyMS < l.MinLatencyMS {
		return specErr("%s: live latency needs 0 ≤ minLatencyMS ≤ maxLatencyMS", name)
	}
	if l.Loss < 0 || l.Loss >= 1 {
		return specErr("%s: live loss %v outside [0,1)", name, l.Loss)
	}
	if l.Shards < 0 {
		return specErr("%s: live shards must be ≥ 0", name)
	}
	return nil
}

// schedule materializes the phase sequence.
func (c *ChurnSpec) schedule() (churn.Schedule, error) {
	if len(c.Phases) == 0 {
		return nil, specErr("churn needs at least one phase")
	}
	phases := make([]churn.Phase, len(c.Phases))
	for i, p := range c.Phases {
		// A rate is a fraction of the current population: above 1 a
		// phase would ask for more joiners than the system holds nodes.
		if !(p.Join >= 0 && p.Join <= 1 && p.Leave >= 0 && p.Leave <= 1) {
			return nil, specErr("churn phase %d rate outside [0,1]", i)
		}
		if p.Every < 0 || p.Cycles < 0 {
			return nil, specErr("churn phase %d has negative every/cycles", i)
		}
		if p.Cycles == 0 && i != len(c.Phases)-1 {
			return nil, specErr("churn phase %d is open-ended but not last", i)
		}
		var s churn.Schedule
		if p.Join > 0 || p.Leave > 0 {
			s = churn.Flat{JoinRate: p.Join, LeaveRate: p.Leave, Every: p.Every}
		}
		phases[i] = churn.Phase{Schedule: s, Cycles: p.Cycles}
	}
	if len(phases) == 1 && phases[0].Cycles <= 0 && phases[0].Schedule != nil {
		return phases[0].Schedule, nil
	}
	return churn.Compose(phases...), nil
}

// pattern materializes the churn pattern; fallback is the spec's
// attribute distribution for uniform-pattern joiners.
func (c *ChurnSpec) pattern(fallback dist.Source) (churn.Pattern, error) {
	switch c.Pattern.Kind {
	case PatternCorrelated:
		spread := c.Pattern.Spread
		if spread == 0 {
			spread = 1
		}
		return churn.Correlated{Spread: spread}, nil
	case PatternUniform:
		src := fallback
		if c.Pattern.Attr != nil {
			s, err := c.Pattern.Attr.Source()
			if err != nil {
				return nil, err
			}
			src = s
		}
		return churn.Uniform{Dist: src}, nil
	default:
		return nil, specErr("unknown churn pattern %q", c.Pattern.Kind)
	}
}

// maxWindow is about 100× the paper's 10⁴-sample window (§5.3.4): each
// node pays W/8 bytes for its window up front.
const maxWindow = 1 << 20

// Config translates the spec into a runnable sim.Config, validating
// every field.
func (s Spec) Config() (sim.Config, error) {
	var cfg sim.Config
	if s.Name == "" {
		return cfg, specErr("missing name")
	}
	if s.N < 1 {
		return cfg, specErr("%s: n must be positive", s.Name)
	}
	if s.ViewSize < 1 {
		return cfg, specErr("%s: viewSize must be positive", s.Name)
	}
	// A view holds distinct peers, and n nodes fill at most n slices:
	// larger sizes are never used, only allocated.
	if s.ViewSize > s.N || s.Slices > s.N {
		return cfg, specErr("%s: viewSize %d and slices %d must not exceed n %d", s.Name, s.ViewSize, s.Slices, s.N)
	}
	if s.Cycles < 1 {
		return cfg, specErr("%s: cycles must be positive", s.Name)
	}
	if s.Concurrency < 0 || s.Concurrency > 1 {
		return cfg, specErr("%s: concurrency %v outside [0,1]", s.Name, s.Concurrency)
	}
	if s.SampleEvery < 0 {
		return cfg, specErr("%s: sampleEvery must be ≥ 0", s.Name)
	}
	if s.MinN < 0 || s.MinCycles < 0 || s.MinSlices < 0 {
		return cfg, specErr("%s: scale floors must be ≥ 0", s.Name)
	}
	if s.SimWorkers < 0 {
		return cfg, specErr("%s: simWorkers must be ≥ 0", s.Name)
	}
	cfg = sim.Config{
		N:             s.N,
		ViewSize:      s.ViewSize,
		Concurrency:   s.Concurrency,
		StalePayloads: s.StalePayloads,
		RecordGDM:     s.RecordGDM,
		Seed:          s.Seed,
		Workers:       s.SimWorkers,
	}
	slices := s.Slices
	switch {
	case len(s.SliceBounds) > 0 && s.Slices > 0:
		return cfg, specErr("%s: slices and sliceBounds are mutually exclusive", s.Name)
	case len(s.SliceBounds) > 0:
		part, err := core.NewPartition(s.SliceBounds...)
		if err != nil {
			return cfg, specErr("%s: %v", s.Name, err)
		}
		cfg.Partition = &part
		slices = part.Len()
	case s.Slices > 0:
		cfg.Slices = s.Slices
	default:
		return cfg, specErr("%s: need slices or sliceBounds", s.Name)
	}
	switch s.Protocol {
	case ProtoOrdering:
		cfg.Protocol = proto.Ordering
		switch s.Policy {
		case "", PolicyModJK:
			cfg.Policy = ordering.SelectMaxGain
		case PolicyJK:
			cfg.Policy = ordering.SelectRandomMisplaced
		default:
			return cfg, specErr("%s: unknown policy %q", s.Name, s.Policy)
		}
	case ProtoRanking:
		cfg.Protocol = proto.Ranking
		if s.Policy != "" {
			return cfg, specErr("%s: policy is an ordering-only field", s.Name)
		}
	default:
		return cfg, specErr("%s: unknown protocol %q", s.Name, s.Protocol)
	}
	switch s.Membership {
	case "", MemCyclon:
		cfg.Membership = sim.CyclonViews
	case MemUniform:
		cfg.Membership = sim.UniformOracle
	default:
		return cfg, specErr("%s: unknown membership %q", s.Name, s.Membership)
	}
	switch s.Estimator {
	case "", EstCounter:
	case EstWindow:
		w := s.WindowSize
		if w < 1 || w > maxWindow {
			return cfg, specErr("%s: window estimator needs 1 ≤ windowSize ≤ %d", s.Name, maxWindow)
		}
		cfg.Estimators = func() ranking.Estimator { return ranking.MustNewWindow(w) }
	default:
		return cfg, specErr("%s: unknown estimator %q", s.Name, s.Estimator)
	}
	attr, err := s.Attr.Source()
	if err != nil {
		return cfg, fmt.Errorf("%s (attr): %w", s.Name, err)
	}
	cfg.AttrDist = attr
	if s.Churn != nil {
		sched, err := s.Churn.schedule()
		if err != nil {
			return cfg, fmt.Errorf("%s (churn): %w", s.Name, err)
		}
		pat, err := s.Churn.pattern(attr)
		if err != nil {
			return cfg, fmt.Errorf("%s (churn): %w", s.Name, err)
		}
		cfg.Schedule, cfg.Pattern = sched, pat
	}
	if err := s.Faults.Validate(slices); err != nil {
		return cfg, specErr("%s (faults): %v", s.Name, err)
	}
	cfg.Faults = s.Faults
	if s.Live != nil {
		if err := s.Live.validate(s.Name); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Default scaling floors; see Spec.MinN / MinCycles.
const (
	defaultMinN      = 100
	defaultMinCycles = 50
	minWindow        = 500 // window estimators degenerate below this
)

// scaledInt shrinks a paper-scale quantity, flooring at min(v, floor) so
// a floor can never inflate the original value.
func scaledInt(v int, scale float64, floor int) int {
	if floor > v {
		floor = v
	}
	s := int(float64(v) * scale)
	if s < floor {
		s = floor
	}
	return s
}

// Scaled returns a copy of the spec with the population, cycle count,
// slice count (when MinSlices is set), window size and churn phase
// lengths shrunk by scale ∈ (0,1], respecting the spec's floors. The
// qualitative shape of the run — who wins, where curves cross — is
// preserved; TestClaims checks the families' claims on scaled specs.
func (s Spec) Scaled(scale float64) Spec {
	if scale >= 1 {
		return s
	}
	minN := s.MinN
	if minN == 0 {
		minN = defaultMinN
	}
	minCycles := s.MinCycles
	if minCycles == 0 {
		minCycles = defaultMinCycles
	}
	s.N = scaledInt(s.N, scale, minN)
	origCycles := s.Cycles
	s.Cycles = scaledInt(s.Cycles, scale, minCycles)
	if s.MinSlices > 0 && s.Slices > 0 {
		s.Slices = scaledInt(s.Slices, scale, s.MinSlices)
	}
	if s.WindowSize > 0 {
		s.WindowSize = scaledInt(s.WindowSize, scale, minWindow)
	}
	// Cycle-positioned structure (churn phases, fault windows) shrinks
	// by the run's EFFECTIVE ratio (which the cycle floor may have kept
	// above scale), so burst proportions and window positions survive
	// scaling instead of overflowing the shortened run.
	ratio := float64(s.Cycles) / float64(origCycles)
	if s.Churn != nil {
		c := *s.Churn
		c.Phases = append([]ChurnPhase(nil), c.Phases...)
		for i := range c.Phases {
			if c.Phases[i].Cycles > 0 {
				c.Phases[i].Cycles = scaledInt(c.Phases[i].Cycles, ratio, 1)
			}
		}
		s.Churn = &c
	}
	if s.Faults != nil {
		s.Faults = scaledPlan(s.Faults, ratio)
	}
	return s
}
