package slicing

// ---------------------------------------------------------------------
// Live runtime facade: real protocol participants.
//
// Where the simulator models cycles, the runtime runs nodes: a Cluster
// multiplexes thousands of them onto a sharded scheduler in one process
// and routes their messages over the scheduler's internal network, and
// a standalone Node gossips on its own schedule over a TCP transport.
// A VirtualClock puts a cluster in driven mode — the same concurrent
// code paths, no wall time spent waiting — which is how the live
// scenario backend and the e2e tests run. This section exports
// the runtime, the TCP transport, and the jitter/clock vocabulary;
// options.go layers functional options (WithPeriod, WithJitter,
// WithServe) on top of these configs.
// ---------------------------------------------------------------------

import (
	"time"

	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/runtime"
	"github.com/gossipkit/slicing/internal/transport"
	"github.com/gossipkit/slicing/internal/transport/tcp"
)

// Live runtime API.
type (
	// Node is a live protocol participant.
	Node = runtime.Node
	// NodeConfig parameterizes a live node.
	NodeConfig = runtime.NodeConfig
	// NodeStatus is a point-in-time node snapshot.
	NodeStatus = runtime.Status
	// Cluster is a process-local set of live nodes, multiplexed onto a
	// sharded scheduler (a fixed worker pool draining per-shard timer
	// wheels) so one process sustains 10,000+ gossiping nodes.
	Cluster = runtime.Cluster
	// ClusterConfig parameterizes a cluster.
	ClusterConfig = runtime.ClusterConfig
	// ClusterMessageCounts tallies a cluster's internal-network traffic.
	ClusterMessageCounts = runtime.MessageCounts
	// Estimator accumulates rank observations for a ranking node.
	Estimator = ranking.Estimator
	// LiveClock abstracts time for a cluster's scheduler.
	LiveClock = runtime.Clock
	// VirtualClock is a manually advanced clock: handing one to a
	// cluster puts it in driven mode, where time moves only through
	// Cluster.Advance — the same concurrent code paths as wall-clock
	// operation, with no wall time spent waiting for gossip periods.
	VirtualClock = runtime.VirtualClock
)

// NewVirtualClock returns a virtual clock for driven clusters.
func NewVirtualClock() *VirtualClock { return runtime.NewVirtualClock() }

// Jitter configuration for NodeConfig/ClusterConfig.JitterFrac.
const (
	// DefaultJitterFrac is the period desynchronization used when
	// JitterFrac is left zero.
	DefaultJitterFrac = runtime.DefaultJitterFrac
	// JitterNone requests strictly periodic gossip (a zero JitterFrac
	// means "default", so jitter-free operation needs the explicit
	// sentinel).
	JitterNone = runtime.JitterNone
)

// Live protocol kinds (runtime flavors of the simulation constants).
// A live node always gossips over the Cyclon variant of §4.3.2.
const (
	// LiveOrdering runs JK / mod-JK on a live node.
	LiveOrdering = runtime.Ordering
	// LiveRanking runs the ranking protocol on a live node.
	LiveRanking = runtime.Ranking
)

// NewNode builds a live node; call Start to begin gossiping.
func NewNode(cfg NodeConfig) (*Node, error) { return runtime.NewNode(cfg) }

// NewCluster builds a process-local cluster of live nodes.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return runtime.NewCluster(cfg) }

// NewCounterEstimator returns the unbounded ℓ/g estimator of Fig. 5.
func NewCounterEstimator() Estimator { return ranking.NewCounter() }

// NewWindowEstimator returns the sliding-window estimator of §5.3.4.
func NewWindowEstimator(size int) (Estimator, error) { return ranking.NewWindow(size) }

// Transports: a standalone Node sends through a Transport; TCP is the
// one implementation exported here.
type (
	// Transport routes protocol messages between live nodes.
	Transport = transport.Transport
	// TCPTransportOptions configures the TCP transport.
	TCPTransportOptions = tcp.Options
	// TCPTransport is the TCP-backed transport.
	TCPTransport = tcp.Transport
)

// NewTCPTransport starts a TCP transport listening per opts.
func NewTCPTransport(opts TCPTransportOptions) (*TCPTransport, error) {
	return tcp.New(opts)
}

// DefaultPeriod is a reasonable live gossip period for LAN deployments.
const DefaultPeriod = 500 * time.Millisecond
