package runtime

import (
	"strconv"
	"sync/atomic"

	"github.com/gossipkit/slicing/internal/telemetry"
)

// Metric names of the runtime layer. The scheduler's counters already
// exist as per-shard atomics (shardCounts), so the delivered/dropped
// families are sampled at scrape time via callback metrics — the hot
// path pays nothing for them. Only the two histograms and the tick
// counter add work per event, and only when telemetry is attached.
const (
	metricQueueDepth  = "slicing_runtime_queue_depth"
	metricTimerLag    = "slicing_runtime_timer_lag_seconds"
	metricDeliveryLat = "slicing_runtime_delivery_latency_seconds"
	metricDelivered   = "slicing_runtime_messages_delivered_total"
	metricDropped     = "slicing_runtime_messages_dropped_total"
	metricTicks       = "slicing_runtime_ticks_total"
	metricJoins       = "slicing_runtime_joins_total"
	metricKills       = "slicing_runtime_kills_total"
	metricNodes       = "slicing_runtime_nodes"
	// metricFaults counts the internal network's fault-plane injections,
	// labeled kind=partitionDrop|chaosDrop|chaosDup|chaosDelay (stays 0
	// until SetNetFaults installs faults).
	metricFaults = "slicing_runtime_faults_injected_total"
)

// schedTelemetry is the scheduler's hot-path instrument set; nil when
// the cluster was built without a Registry.
type schedTelemetry struct {
	timerLag    *telemetry.Histogram
	deliveryLat *telemetry.Histogram
	ticks       *telemetry.Counter
}

// attachTelemetry registers the scheduler's instruments on reg. Queue
// depths and message tallies are callbacks over existing scheduler
// state; re-attaching a new scheduler to a shared registry rebinds
// them to the new instance.
func (s *scheduler) attachTelemetry(reg *telemetry.Registry) {
	for i, sh := range s.shards {
		sh := sh
		reg.GaugeFunc(metricQueueDepth,
			"Pending events (timer wheel + released batch) per scheduler shard.",
			func() float64 {
				sh.mu.Lock()
				depth := len(sh.wheel) + (len(sh.ready) - sh.readyHead)
				sh.mu.Unlock()
				return float64(depth)
			},
			telemetry.L("shard", strconv.Itoa(i)))
	}
	type tally struct {
		kind string
		load func(*shardCounts) uint64
	}
	for _, t := range []tally{
		{"viewRequest", func(c *shardCounts) uint64 { return c.viewReq.Load() }},
		{"viewReply", func(c *shardCounts) uint64 { return c.viewRep.Load() }},
		{"swapRequest", func(c *shardCounts) uint64 { return c.swapReq.Load() }},
		{"swapReply", func(c *shardCounts) uint64 { return c.swapRep.Load() }},
		{"rankUpdate", func(c *shardCounts) uint64 { return c.rankUpd.Load() }},
	} {
		load := t.load
		reg.CounterFunc(metricDelivered,
			"Messages delivered by the scheduler-routed internal network, by type.",
			func() uint64 {
				var sum uint64
				for _, sh := range s.shards {
					sum += load(&sh.counts)
				}
				return sum
			},
			telemetry.L("type", t.kind))
	}
	reg.CounterFunc(metricDropped,
		"Messages dropped by loss injection or departed destinations.",
		func() uint64 {
			var sum uint64
			for _, sh := range s.shards {
				sum += sh.counts.dropped.Load()
			}
			return sum
		})
	type faultTally struct {
		kind string
		ctr  *atomic.Uint64
	}
	for _, t := range []faultTally{
		{"partitionDrop", &s.faultPartDrops},
		{"chaosDrop", &s.faultChaosDrops},
		{"chaosDup", &s.faultChaosDups},
		{"chaosDelay", &s.faultChaosDelays},
	} {
		ctr := t.ctr
		reg.CounterFunc(metricFaults,
			"Fault-plane injections performed by the internal network, by kind.",
			func() uint64 { return ctr.Load() },
			telemetry.L("kind", t.kind))
	}
	s.tel = &schedTelemetry{
		timerLag: reg.Histogram(metricTimerLag,
			"Delay between an event's due time and its execution.",
			telemetry.LatencyBuckets),
		deliveryLat: reg.Histogram(metricDeliveryLat,
			"Network latency drawn for each delivered message.",
			telemetry.LatencyBuckets),
		ticks: reg.Counter(metricTicks,
			"Node gossip ticks executed by the scheduler."),
	}
}

// attachClusterTelemetry registers the cluster-level instruments:
// membership churn counters and the live-node gauge.
func (c *Cluster) attachClusterTelemetry(reg *telemetry.Registry) {
	c.telJoins = reg.Counter(metricJoins, "Nodes joined since cluster construction (excludes the initial N).")
	c.telKills = reg.Counter(metricKills, "Nodes crashed via Kill.")
	reg.GaugeFunc(metricNodes, "Live nodes in the cluster.",
		func() float64 { return float64(c.nodeCount.Load()) })
}

// Metrics returns the telemetry registry the cluster was built with,
// or nil. The serving layer and cmd binaries mount its Handler as
// /metrics.
func (c *Cluster) Metrics() *telemetry.Registry { return c.cfg.Telemetry }

// Trace returns the protocol trace ring the cluster was built with, or
// nil.
func (c *Cluster) Trace() *telemetry.TraceRing { return c.cfg.Trace }

// Node-level metric names, registered only by standalone nodes (a
// cluster of 10k nodes exposes scheduler aggregates instead).
const (
	metricNodeTicks        = "slicing_node_ticks_total"
	metricNodeSliceChanges = "slicing_node_slice_changes_total"
	metricNodeSends        = "slicing_node_sends_total"
	metricNodeSendErrors   = "slicing_node_send_errors_total"
	metricNodeSlice        = "slicing_node_slice"
	metricNodeRank         = "slicing_node_rank_estimate"
	metricNodeViewLen      = "slicing_node_view_len"
)

// nodeTelemetry is a standalone node's instrument set; nil when the
// node was built without a Registry.
type nodeTelemetry struct {
	ticks        *telemetry.Counter
	sliceChanges *telemetry.Counter
	sends        *telemetry.Counter
	sendErrs     *telemetry.Counter
}

// attachNodeTelemetry registers a single node's instruments on reg.
func (n *Node) attachNodeTelemetry(reg *telemetry.Registry) {
	n.tel = &nodeTelemetry{
		ticks:        reg.Counter(metricNodeTicks, "Gossip periods this node's active thread has completed."),
		sliceChanges: reg.Counter(metricNodeSliceChanges, "Slice reassignments this node observed on itself."),
		sends:        reg.Counter(metricNodeSends, "Protocol messages this node attempted to send."),
		sendErrs:     reg.Counter(metricNodeSendErrors, "Sends the transport refused synchronously."),
	}
	reg.GaugeFunc(metricNodeSlice, "The slice index this node currently believes it belongs to.",
		func() float64 { return float64(n.Status().SliceIx) })
	reg.GaugeFunc(metricNodeRank, "The node's current rank/random-value estimate.",
		func() float64 { return n.Status().R })
	reg.GaugeFunc(metricNodeViewLen, "Entries in the node's gossip view.",
		func() float64 { return float64(n.Status().ViewLen) })
}

// Metrics returns the registry the node was built with, or nil.
func (n *Node) Metrics() *telemetry.Registry { return n.reg }

// TraceRing returns the node's protocol trace ring, or nil.
func (n *Node) TraceRing() *telemetry.TraceRing { return n.trace }
