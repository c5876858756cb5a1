package scenario

import (
	"fmt"

	"github.com/gossipkit/slicing/internal/sim"
)

// Backend names.
const (
	// BackendSim is the cycle-driven simulator (the paper's PeerSim
	// model): message exchanges complete atomically inside cycles.
	BackendSim = "sim"
	// BackendLive is the live runtime: every node is a real protocol
	// participant on the sharded scheduler, messages travel a transport
	// with genuine asynchrony, and churn happens as actual joins and
	// crashes while gossip is in flight.
	BackendLive = "live"
)

// Backend executes one Spec to completion and returns the recorded
// series. The two implementations — SimBackend and LiveBackend — accept
// the same Spec and return the same Result shape, so every consumer of
// a run (the Runner, the slicebench CLI, the emitters, comparison
// tests) is engine-agnostic: one spec, two engines.
type Backend interface {
	// Name identifies the backend in results and CLI flags.
	Name() string
	// Run validates and executes the spec for its Cycles duration.
	Run(spec Spec) (*sim.Result, error)
}

// SimBackend executes specs on the cycle-driven simulator.
type SimBackend struct {
	// Inst optionally attaches observability hooks to every run (the
	// simulator uses Inst.Telemetry only; traces are a live concept).
	Inst Instrumentation
}

// Name implements Backend.
func (SimBackend) Name() string { return BackendSim }

// Run implements Backend.
func (b SimBackend) Run(spec Spec) (*sim.Result, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Telemetry = b.Inst.Telemetry
	e, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	e.Run(spec.Cycles)
	if b.Inst.AtEnd != nil {
		b.Inst.AtEnd(spec, e.N())
	}
	return e.Result(), nil
}

// BackendByName resolves a backend flag value.
func BackendByName(name string) (Backend, error) {
	switch name {
	case BackendSim, "":
		return SimBackend{}, nil
	case BackendLive:
		return LiveBackend{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown backend %q (want %q or %q)", ErrSpec, name, BackendSim, BackendLive)
	}
}
