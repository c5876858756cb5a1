package slicing

// ---------------------------------------------------------------------
// Domain facade: identities, attributes, slices, partitions.
//
// The vocabulary of the paper's §3 model, shared by every layer: nodes
// (ID, Attr, Member), the normalized rank domain (0,1], and its
// partition into ordered slices. Everything else in this package —
// simulation, live runtime, scenarios, serving — is expressed in these
// types. Sibling facade sections live one per file: simulate.go (the
// cycle model), live.go (the runtime), scenarios.go (the declarative
// catalog), serve.go (the query plane), telemetry.go (metrics and
// traces), analytic.go (closed-form results).
// ---------------------------------------------------------------------

import (
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/view"
)

// Domain types.
type (
	// ID uniquely identifies a node.
	ID = core.ID
	// Attr is a node's attribute value (the capability the network is
	// sliced by).
	Attr = core.Attr
	// Member pairs a node identity with its attribute.
	Member = core.Member
	// Partition is an ordered set of adjacent slices covering (0,1].
	Partition = core.Partition
	// ViewEntry is one row of a gossip view (used for bootstrapping live
	// nodes).
	ViewEntry = view.Entry
)

// AgePlaceholder marks a bootstrap ViewEntry as identity-only: a contact
// address whose attribute and rank coordinate are not yet known. The
// protocols gossip with placeholders but never sample them.
const AgePlaceholder = view.AgeUnknown

// EqualSlices returns a partition of k equally sized slices.
func EqualSlices(k int) (Partition, error) { return core.Equal(k) }

// CustomSlices builds a partition from interior boundaries; for example
// CustomSlices(0.8) defines the bottom-80% and top-20% slices.
func CustomSlices(bounds ...float64) (Partition, error) { return core.NewPartition(bounds...) }

// Ranks returns every member's 1-based attribute rank (ties broken by
// identifier).
func Ranks(members []Member) map[ID]int { return core.Ranks(members) }

// Series types recorded by simulations.
type (
	// Series is a named time series (cycle, value).
	Series = metrics.Series
	// NodeState is a per-node measurement snapshot.
	NodeState = metrics.NodeState
)

// SDM computes the slice disorder measure of a population snapshot.
func SDM(states []NodeState, part Partition) float64 { return metrics.SDM(states, part) }

// GDM computes the global disorder measure of a population snapshot.
func GDM(states []NodeState) float64 { return metrics.GDM(states) }
