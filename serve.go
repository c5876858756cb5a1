package slicing

// ---------------------------------------------------------------------
// Serving facade: the slice query plane.
//
// internal/serving turns the slice estimates nodes already maintain
// into answers external clients can consume — "which slice is
// attribute X in?", "who is in the top k%?", a boundary-crossing
// stream — each answer carrying a staleness/error bound derived from
// the answering node's convergence state. This section re-exports that
// plane: the backend-agnostic SliceQuerier contract, the two queriers
// (live nodes, simulator) and the HTTP/SSE server. Serving a live node
// or cluster is explicit composition: build it, wrap it with
// NewNodeQuerier or NewClusterQuerier, mount that on NewQueryServer,
// Start the node or cluster and then the server; on departure Shutdown
// the server before stopping gossip.
// ---------------------------------------------------------------------

import "github.com/gossipkit/slicing/internal/serving"

// Query-plane types.
type (
	// SliceQuerier answers slice queries from a local estimate; the
	// backend-agnostic contract implemented by ClusterQuerier and
	// SimQuerier.
	SliceQuerier = serving.SliceQuerier
	// ServingCalibration anchors staleness bounds to measured
	// convergence data (see RankingServingCalibration).
	ServingCalibration = serving.Calibration

	// ClusterQuerier answers queries round-robin across live nodes,
	// each answer from one node's local estimate.
	ClusterQuerier = serving.ClusterQuerier
	// SimQuerier answers queries from a simulation snapshot (testing).
	SimQuerier = serving.SimQuerier

	// QueryServer exposes a SliceQuerier over HTTP/JSON with an SSE
	// boundary stream.
	QueryServer = serving.Server
	// ServeOptions configures a QueryServer.
	ServeOptions = serving.Options
)

// Default calibrations for the staleness bounds, derived from the
// scenario catalog's measured convergence floors (`slicebench sweep`
// finalSDM).
var (
	// RankingServingCalibration fits ranking-protocol backends.
	RankingServingCalibration = serving.RankingCalibration
	// OrderingServingCalibration fits ordering-protocol backends.
	OrderingServingCalibration = serving.OrderingCalibration
)

// NewNodeQuerier wraps one live node as a SliceQuerier: a
// ClusterQuerier whose every answer comes from n. A zero calibration
// selects RankingServingCalibration.
func NewNodeQuerier(n *Node, cal ServingCalibration) *ClusterQuerier {
	return serving.NewNodeQuerier(n, cal)
}

// NewClusterQuerier wraps a live cluster as a SliceQuerier: every query
// is answered by one node's local estimate, round-robin. A zero
// calibration selects RankingServingCalibration.
func NewClusterQuerier(c *Cluster, cal ServingCalibration) (*ClusterQuerier, error) {
	return serving.NewClusterQuerier(c, cal)
}

// NewSimQuerier snapshots a simulation as a SliceQuerier (the testing
// backend; call Refresh after stepping the engine).
func NewSimQuerier(e *Simulation, cal ServingCalibration) *SimQuerier {
	return serving.NewSimQuerier(e, cal)
}

// NewQueryServer mounts a querier behind HTTP/JSON:
// GET /slice?attr=X, GET /topk?frac=F, GET /snapshot, GET /healthz, and
// GET /watch (an SSE stream of boundary crossings).
func NewQueryServer(q SliceQuerier, opts ServeOptions) *QueryServer {
	return serving.NewServer(q, opts)
}
