package slicing

// ---------------------------------------------------------------------
// Scenario facade: the declarative catalog and its two engines.
//
// A Scenario is a named family of Specs — one per curve of a paper
// figure or extension workload — and a Spec is plain JSON-serializable
// data. Specs execute on either engine behind the ScenarioBackend
// interface: the cycle simulator or the live runtime ("one spec, two
// engines"), returning the same result shape so disorder trajectories
// are directly comparable. cmd/slicebench is a thin CLI over this
// section.
// ---------------------------------------------------------------------

import (
	"github.com/gossipkit/slicing/internal/scenario"
)

// Scenario catalog: the declarative layer behind cmd/slicebench. A
// Scenario is a named family of Specs — one per curve of a paper figure
// or extension workload — and a Spec is a JSON-serializable description
// of one run that translates into a SimConfig via its Config method.
type (
	// Scenario is a named family of runnable specs.
	Scenario = scenario.Scenario
	// ScenarioSpec declares one run as plain data.
	ScenarioSpec = scenario.Spec
)

// Scenarios returns the built-in scenario catalog: the paper's figure
// families plus the extension workloads.
func Scenarios() []Scenario { return scenario.All() }

// LookupScenario finds a catalog scenario by name (e.g. "fig6-burst").
func LookupScenario(name string) (Scenario, error) { return scenario.Lookup(name) }

// Execution backends: one spec, two engines. A ScenarioBackend executes
// a ScenarioSpec either on the cycle-driven simulator (the paper's
// PeerSim model) or on the live runtime (real protocol participants on
// a sharded scheduler, churn as actual joins and crashes, transport
// latency/loss injection from the spec's live block). Both return the
// same result shape, so sim and live disorder trajectories are directly
// comparable.
type ScenarioBackend = scenario.Backend

// Backend names accepted by ScenarioBackendByName (and the slicebench
// -backend flag).
const (
	// BackendSim names the cycle-driven simulator backend.
	BackendSim = scenario.BackendSim
	// BackendLive names the live-runtime backend.
	BackendLive = scenario.BackendLive
)

// ScenarioBackendByName resolves "sim" or "live".
func ScenarioBackendByName(name string) (ScenarioBackend, error) {
	return scenario.BackendByName(name)
}
