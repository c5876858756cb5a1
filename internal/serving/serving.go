// Package serving is the slice query plane: it turns the slice
// estimates every node already maintains (§2, §5 of the paper) into
// answers external clients can consume. Until now the only consumers of
// slice assignments were the nodes themselves; this package lets any
// live node — or, for testing, the cycle simulator — answer "which
// slice is attribute X in?", "who is in the top k%?", and stream
// slice-boundary crossings, each answer carrying a staleness/error
// bound derived from the answering node's own convergence state.
//
// The design is deliberately local: a query is answered from ONE node's
// partial knowledge (its own rank estimate plus its bounded gossip
// view), exactly the information a real distributed node holds. The
// answer is therefore an estimate, and every response says how good an
// estimate it is: a Staleness block combining the node's evidence count
// (estimator fill), its gossip age (ticks), a Wald confidence interval
// on the rank mapping, and a residual disorder floor calibrated against
// the benchmark catalog's measured finalSDM values (standing in for the
// paper's §4 probabilistic guarantees).
//
// Three queriers implement the plane: NodeQuerier (one live node),
// ClusterQuerier (round-robin over a live cluster — "any node can
// answer"), and SimQuerier (the simulator backend, for tests). Server
// mounts any SliceQuerier behind HTTP/JSON with an SSE stream for
// boundary crossings.
package serving

import (
	"errors"

	"github.com/gossipkit/slicing/internal/core"
)

// Query-plane errors.
var (
	// ErrBadAttr is returned for NaN/Inf query attributes.
	ErrBadAttr = errors.New("serving: attribute must be a finite number")
	// ErrBadFrac is returned for top-k fractions outside (0,1].
	ErrBadFrac = errors.New("serving: top-k fraction must lie in (0,1]")
	// ErrNoEvidence is returned when the answering node holds no
	// attribute evidence at all (empty view, no samples).
	ErrNoEvidence = errors.New("serving: node has no attribute evidence yet")
	// ErrNoNodes is returned by a ClusterQuerier over an empty cluster.
	ErrNoNodes = errors.New("serving: cluster has no live nodes")
)

// Staleness is the error bound attached to every answer: how stale or
// uncertain the answering node's local estimate may be. Bound is the
// headline number — an estimated upper bound on the normalized-rank
// error of the answer — and the remaining fields are the convergence
// evidence it was computed from.
type Staleness struct {
	// Ticks is the number of gossip periods the answering node has
	// completed: its local convergence clock.
	Ticks int `json:"ticks"`
	// Samples is the number of attribute observations the node's rank
	// estimator has incorporated (the window fill for sliding-window
	// estimators; 0 for ordering nodes, whose evidence is tick-counted).
	Samples int `json:"samples"`
	// Points is the number of (attribute, rank) anchor points the local
	// interpolation used: the node's view entries plus itself.
	Points int `json:"points"`
	// RankCI is the half-width of the Wald confidence interval on the
	// rank estimate at the calibration's Z (default 95%).
	RankCI float64 `json:"rankCI"`
	// Confidence is the Theorem 5.1 confidence coefficient that the
	// answer's slice assignment is exact, given the evidence count and
	// the answer's distance to the nearest slice boundary.
	Confidence float64 `json:"confidence"`
	// ResidualSDM is the calibrated convergence floor: the slice
	// disorder the protocol family settles at in the scenario catalog
	// (`slicebench sweep` finalSDM), inflated while the node is still
	// warming up.
	ResidualSDM float64 `json:"residualSDM"`
	// Bound is max(RankCI, ResidualSDM), clamped to [0,1]: the error
	// bar a client should put on the answer's rank (and hence slice).
	Bound float64 `json:"bound"`
	// Warming reports that the answering node is younger than the
	// warmup grace (DefaultWarmupTicks completed periods): its bound is
	// dominated by youth, not by measured disorder. Clients should treat
	// the answer as provisional rather than read the near-1 bound as a
	// converged node's verdict.
	Warming bool `json:"warming,omitempty"`
	// Degraded reports that the answering node appears cut off from the
	// network (no message received for DefaultStarvationTicks
	// consecutive gossip periods — the signature of a partition or
	// black-holed links). The bound is inflated accordingly and /healthz
	// stops advertising the node as healthy.
	Degraded bool `json:"degraded,omitempty"`
}

// SliceAnswer answers "which slice is attribute X in?" from one node's
// local estimate.
type SliceAnswer struct {
	// Attr echoes the queried attribute value.
	Attr float64 `json:"attr"`
	// Rank is the estimated normalized rank of the attribute in (0,1].
	Rank float64 `json:"rank"`
	// SliceIx is the index of the slice containing Rank.
	SliceIx int `json:"slice"`
	// Low and High are the slice's rank bounds (the (Low, High] interval).
	Low  float64 `json:"low"`
	High float64 `json:"high"`
	// Node identifies the answering node.
	Node core.ID `json:"node"`
	// Staleness bounds the answer's error.
	Staleness Staleness `json:"staleness"`
}

// TopKMember is one locally known member of the top-k% slice.
type TopKMember struct {
	ID   core.ID `json:"id"`
	Attr float64 `json:"attr"`
	Rank float64 `json:"rank"`
}

// TopKAnswer answers "who is in the top k%?" from one node's local
// estimate. Members is necessarily partial — a node only knows its
// bounded view — but AttrThreshold generalizes: any node whose
// attribute exceeds it is estimated to be in the top k%.
type TopKAnswer struct {
	// Frac echoes the queried fraction (the top-Frac of the rank domain).
	Frac float64 `json:"frac"`
	// AttrThreshold is the estimated attribute value at rank 1−Frac:
	// the admission bar of the top-k% slice.
	AttrThreshold float64 `json:"attrThreshold"`
	// SelfIncluded reports whether the answering node believes itself in
	// the top k%.
	SelfIncluded bool `json:"selfIncluded"`
	// Members lists the answering node's known top-k% members (from its
	// view, plus itself when SelfIncluded), best rank first.
	Members []TopKMember `json:"members"`
	// Node identifies the answering node.
	Node core.ID `json:"node"`
	// Staleness bounds the answer's error.
	Staleness Staleness `json:"staleness"`
}

// Snapshot is a queryable node's own state: its identity, attribute,
// believed rank and slice, and the staleness of that belief.
type Snapshot struct {
	Node    core.ID `json:"node"`
	Attr    float64 `json:"attr"`
	Rank    float64 `json:"rank"`
	SliceIx int     `json:"slice"`
	Low     float64 `json:"low"`
	High    float64 `json:"high"`
	ViewLen int     `json:"viewLen"`
	// Staleness bounds the snapshot's error.
	Staleness Staleness `json:"staleness"`
}

// BoundaryEvent reports one slice-boundary crossing: a node's believed
// slice changed from Old to New (§3.3: churn and convergence both
// reassign slices).
type BoundaryEvent struct {
	// Node is the node whose believed slice changed.
	Node core.ID `json:"node"`
	// Old and New are the slice indices before and after the crossing.
	Old int `json:"old"`
	New int `json:"new"`
	// Seq numbers events per subscription, from 1; a gap means the
	// subscriber fell behind and events were dropped.
	Seq uint64 `json:"seq"`
}

// SliceQuerier answers slice queries from a local estimate. It is the
// backend-agnostic contract of the query plane: NodeQuerier (one live
// node), ClusterQuerier (a live cluster) and SimQuerier (the simulator)
// all implement it, so the HTTP server and the load bench are
// engine-agnostic.
//
// Implementations are safe for concurrent use.
type SliceQuerier interface {
	// SliceOf estimates which slice the given attribute value falls in.
	SliceOf(attr float64) (SliceAnswer, error)
	// TopK estimates the top-frac fraction of the rank domain: its
	// attribute threshold and the locally known members.
	TopK(frac float64) (TopKAnswer, error)
	// Snapshot reports the answering node's own state.
	Snapshot() (Snapshot, error)
	// WatchBoundary subscribes to slice-boundary crossings. Events are
	// delivered on the returned channel (buffered to buffer entries,
	// default 64; events are dropped, never blocked on, when the
	// subscriber falls behind — Seq gaps reveal drops). The channel is
	// never closed; cancel detaches the subscription.
	WatchBoundary(buffer int) (<-chan BoundaryEvent, func(), error)
}
