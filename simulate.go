package slicing

// ---------------------------------------------------------------------
// Simulation facade: the paper's cycle model.
//
// The simulator executes the protocols in discrete synchronized cycles
// over an in-memory population (the PeerSim methodology of §4.5/§5.3),
// which makes runs deterministic and cheap enough to sweep. This
// section exports the engine, the protocol and partner-policy names a
// SimConfig is written with, and the attribute laws populations are
// drawn from. Membership substrates, estimator kinds and the churn
// models of §5.3.3 are set through a ScenarioSpec (see scenarios.go).
// ---------------------------------------------------------------------

import (
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
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
)

// Protocol kinds for SimConfig.Protocol and the live NodeConfig and
// ClusterConfig.Protocol.
const (
	// Ordering runs JK / mod-JK (§4 of the paper).
	Ordering = proto.Ordering
	// Ranking runs the rank-estimation protocol (§5).
	Ranking = proto.Ranking
)

// Partner-selection policies for SimConfig.Policy.
const (
	// JK picks a uniformly random misplaced neighbor.
	JK = ordering.SelectRandomMisplaced
	// ModJK picks the misplaced neighbor with the maximal local
	// disorder gain (the paper's contribution).
	ModJK = ordering.SelectMaxGain
)

// Attribute distributions for SimConfig.AttrDist. Every law also
// exposes its analytic CDF and Quantile: the true attribute threshold
// of a slice boundary b is Quantile(b), and the asymptotic normalized
// rank of a node with attribute x is CDF(x).
type (
	// UniformDist draws uniformly from [Lo, Hi).
	UniformDist = dist.Uniform
	// ParetoDist draws from a heavy-tailed Pareto distribution.
	ParetoDist = dist.Pareto
	// ExponentialDist draws exponentially distributed values.
	ExponentialDist = dist.Exponential
	// NormalDist draws normally distributed values.
	NormalDist = dist.Normal
	// MixtureDist draws from a weighted mixture of component laws
	// (multi-modal populations).
	MixtureDist = dist.Mixture
	// MixtureComponent pairs a mixture component with its weight.
	MixtureComponent = dist.Weighted
)

// Simulate runs cfg for the given number of cycles and returns the
// recorded series.
func Simulate(cfg SimConfig, cycles int) (*SimResult, error) { return sim.Run(cfg, cycles) }

// NewSimulation builds a stepwise-controllable engine.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }
