package slicing

// ---------------------------------------------------------------------
// Telemetry facade: metrics and protocol traces.
//
// internal/telemetry is a stdlib-only metrics plane — atomic counters,
// gauges and fixed-bucket histograms behind a hand-rolled Prometheus
// text-format handler — plus a fixed-capacity ring of protocol decision
// events. This section re-exports the two consumer-facing pieces: the
// registry a caller attaches to a node or cluster (the Telemetry field
// of NodeConfig / ClusterConfig) and the trace ring (their Trace
// field). Registry.Handler() serves the scrape endpoint; a query server
// given the registry in ServeOptions mounts it at GET /metrics.
// ---------------------------------------------------------------------

import (
	"github.com/gossipkit/slicing/internal/telemetry"
)

// Telemetry types.
type (
	// Telemetry is a metrics registry: counters, gauges and histograms
	// with Prometheus text-format exposition (Handler).
	Telemetry = telemetry.Registry
	// TraceRing is a bounded buffer of protocol decision
	// events; full rings overwrite oldest-first.
	TraceRing = telemetry.TraceRing
)

// NewTelemetry builds an empty metrics registry. Attach it with
// ClusterConfig.Telemetry / NodeConfig.Telemetry and serve Handler(),
// or pass it to a query server as ServeOptions.Telemetry, which mounts
// GET /metrics.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewTraceRing builds a protocol trace ring holding capacity events
// (rounded up to a power of two; capacity <= 0 selects the default).
// Attach it with ClusterConfig.Trace / NodeConfig.Trace; a query server
// given it as ServeOptions.Trace dumps it at GET /debug/trace.
func NewTraceRing(capacity int) *TraceRing { return telemetry.NewTraceRing(capacity) }
