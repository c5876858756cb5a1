package slicing

// ---------------------------------------------------------------------
// Simulation facade: the paper's cycle model.
//
// The simulator executes the protocols in discrete synchronized cycles
// over an in-memory population (the PeerSim methodology of §4.5/§5.3),
// which makes runs deterministic and cheap enough to sweep. This
// section exports the engine, its configuration vocabulary (protocols,
// membership substrates, estimators, partner policies), the attribute
// laws populations are drawn from, and the churn models of §5.3.3.
// ---------------------------------------------------------------------

import (
	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/sim"
)

// Simulation API (the paper's cycle model).
type (
	// SimConfig parameterizes a simulation; see the field docs.
	SimConfig = sim.Config
	// SimResult carries the recorded series of a run.
	SimResult = sim.Result
	// Simulation is a stepwise-controllable simulation engine.
	Simulation = sim.Engine
	// MessageCounts tallies delivered messages by type.
	MessageCounts = sim.MessageCounts
)

// Protocol kinds for SimConfig.Protocol.
const (
	// Ordering simulates JK / mod-JK (§4 of the paper).
	Ordering = sim.Ordering
	// Ranking simulates the rank-estimation protocol (§5).
	Ranking = sim.Ranking
)

// Membership kinds for SimConfig.Membership.
const (
	// CyclonViews is the Cyclon variant of §4.3.2 (default).
	CyclonViews = sim.CyclonViews
	// UniformOracle re-draws views uniformly at random every cycle.
	UniformOracle = sim.UniformOracle
)

// Estimator kinds for SimConfig.Estimator.
const (
	// CounterEstimator is the unbounded ℓ/g counter (Fig. 5).
	CounterEstimator = sim.CounterEstimator
	// WindowEstimator is the sliding-window variant (§5.3.4).
	WindowEstimator = sim.WindowEstimator
)

// Partner-selection policies for SimConfig.Policy.
const (
	// JK picks a uniformly random misplaced neighbor.
	JK = ordering.SelectRandomMisplaced
	// ModJK picks the misplaced neighbor with the maximal local
	// disorder gain (the paper's contribution).
	ModJK = ordering.SelectMaxGain
)

// Attribute distributions for SimConfig.AttrDist. Every concrete source
// also implements AttrDistribution, exposing the analytic CDF and
// quantile function of its law: the true attribute threshold of a slice
// boundary b is Quantile(b), and the asymptotic normalized rank of a
// node with attribute x is CDF(x).
type (
	// AttrSource draws attribute values.
	AttrSource = dist.Source
	// AttrDistribution extends AttrSource with analytic CDF and
	// Quantile methods (all sources below implement it).
	AttrDistribution = dist.Distribution
	// UniformDist draws uniformly from [Lo, Hi).
	UniformDist = dist.Uniform
	// ParetoDist draws from a heavy-tailed Pareto distribution.
	ParetoDist = dist.Pareto
	// ExponentialDist draws exponentially distributed values.
	ExponentialDist = dist.Exponential
	// NormalDist draws normally distributed values.
	NormalDist = dist.Normal
	// ZipfDist draws ranks from the finite Zipf law on {1..N}.
	ZipfDist = dist.Zipf
	// LogNormalDist draws values whose logarithm is normal.
	LogNormalDist = dist.LogNormal
	// MixtureDist draws from a weighted mixture of component laws
	// (multi-modal populations).
	MixtureDist = dist.Mixture
	// MixtureComponent pairs a mixture component with its weight.
	MixtureComponent = dist.Weighted
	// EmpiricalDist replays a histogram-backed measured profile.
	EmpiricalDist = dist.Empirical
)

// NewEmpiricalDist bins raw samples (e.g. a bandwidth census) into an
// EmpiricalDist with the given number of equal-width bins.
func NewEmpiricalDist(samples []float64, bins int) (EmpiricalDist, error) {
	return dist.NewEmpirical(samples, bins)
}

// Churn models for SimConfig.Schedule / SimConfig.Pattern.
type (
	// ChurnSchedule decides when and how many nodes churn.
	ChurnSchedule = churn.Schedule
	// ChurnPattern decides which nodes leave and what joiners bring.
	ChurnPattern = churn.Pattern
	// NoChurn is the static system.
	NoChurn = churn.None
	// BurstChurn churns every cycle until a cutoff (Fig. 6(c)).
	BurstChurn = churn.Burst
	// PeriodicChurn churns every k-th cycle (Fig. 6(d)).
	PeriodicChurn = churn.Periodic
	// CorrelatedChurn removes the lowest-attribute nodes and admits
	// higher-attribute joiners (§5.3.3).
	CorrelatedChurn = churn.Correlated
	// UniformChurn removes random nodes and admits joiners from the
	// initial distribution.
	UniformChurn = churn.Uniform
)

// Simulate runs cfg for the given number of cycles and returns the
// recorded series.
func Simulate(cfg SimConfig, cycles int) (*SimResult, error) { return sim.Run(cfg, cycles) }

// NewSimulation builds a stepwise-controllable engine.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }
