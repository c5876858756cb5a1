package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/telemetry"
	"github.com/gossipkit/slicing/internal/view"
)

// Cluster configuration errors.
var (
	ErrClusterSize = errors.New("runtime: cluster needs at least two nodes")
	ErrNoDist      = errors.New("runtime: cluster needs an attribute distribution")
	// ErrLossRange is returned for loss rates outside [0,1).
	ErrLossRange = errors.New("runtime: Loss must lie in [0,1)")
	// ErrLatencyRange is returned when MaxLatency < MinLatency or a
	// latency bound is negative.
	ErrLatencyRange = errors.New("runtime: latency bounds need 0 ≤ MinLatency ≤ MaxLatency")
	// ErrNotDriven is returned by Advance on a wall-clock cluster.
	ErrNotDriven = errors.New("runtime: Advance needs a cluster built with a VirtualClock")
	// ErrStopped is returned by a cluster's Start, Advance and Join, and
	// by a node's Start, after Stop.
	ErrStopped = errors.New("runtime: stopped")
)

// ClusterConfig parameterizes a process-local cluster of live nodes.
// Every message between them is routed by the cluster's sharded
// scheduler itself — its internal network, with optional latency and
// loss injection below; no per-node goroutines exist.
type ClusterConfig struct {
	N         int
	Partition core.Partition
	ViewSize  int
	Protocol  proto.Kind
	// Policy selects JK / mod-JK (Ordering only).
	Policy ordering.Policy
	// Estimators builds each node's estimator (Ranking only); nil means
	// counters.
	Estimators func() ranking.Estimator
	// Period is the gossip period for every node. Required.
	Period time.Duration
	// JitterFrac desynchronizes node periods. Zero means
	// DefaultJitterFrac; pass JitterNone (or any negative value) for
	// strictly periodic nodes.
	JitterFrac float64
	// AttrDist draws the attribute values. Required.
	AttrDist dist.Source
	// Seed makes the construction reproducible.
	Seed int64
	// Clock drives the scheduler. Nil means the wall clock; a
	// *VirtualClock puts the cluster in driven mode, where time moves
	// only through Advance.
	Clock Clock
	// Shards is the scheduler's worker count. Default GOMAXPROCS
	// (capped at 32).
	Shards int
	// MinLatency and MaxLatency bound the uniformly drawn delivery
	// delay of the internal network. Zero delivers at the next
	// scheduling opportunity.
	MinLatency, MaxLatency time.Duration
	// Loss is the probability a message on the internal network is
	// silently dropped.
	Loss float64
	// Telemetry, when non-nil, receives the cluster's metrics: per-shard
	// queue depths, delivered/dropped tallies, latency histograms, and
	// churn counters. Cluster.Metrics returns it; its Handler serves
	// /metrics. Nil keeps the schedule/send hot paths instrumentation-free.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records protocol decision events (view
	// exchanges, swap attempts, boundary crossings, rank updates) from
	// every node into one shared ring. Nil disables tracing.
	Trace *telemetry.TraceRing
}

// Cluster is a set of live nodes multiplexed onto a sharded scheduler.
type Cluster struct {
	part   core.Partition
	sched  *scheduler
	driven bool

	// Immutable construction parameters, kept for Join.
	cfg ClusterConfig

	// The fields below are guarded by the scheduler being quiescent
	// (driven mode) or by external synchronization of the caller: the
	// cluster's mutating methods (Join, Kill, Start, Stop) and snapshot
	// methods are safe to call concurrently with gossip but not with
	// each other.
	nodes   []*Node
	index   map[core.ID]int
	nextID  core.ID
	rng     *rand.Rand
	started bool
	stopped bool

	// nodeCount mirrors len(nodes) atomically so the telemetry gauge can
	// sample it from a scrape goroutine without racing Join/Kill.
	nodeCount atomic.Int64
	telJoins  *telemetry.Counter
	telKills  *telemetry.Counter
}

// NewCluster builds the nodes (ids 1..N) with bootstrap views wired into
// a random graph. Call Start to begin gossiping (and, in driven mode,
// Advance to move time).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, ErrClusterSize
	}
	if cfg.AttrDist == nil {
		return nil, ErrNoDist
	}
	if cfg.Period <= 0 {
		return nil, ErrBadPeriod
	}
	if cfg.JitterFrac >= 1 {
		return nil, ErrBadJitter
	}
	if cfg.Loss < 0 || cfg.Loss >= 1 {
		return nil, ErrLossRange
	}
	if cfg.MinLatency < 0 || cfg.MaxLatency < cfg.MinLatency {
		return nil, ErrLatencyRange
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	_, driven := clock.(*VirtualClock)
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 32 {
			shards = 32
		}
	}
	sched := newScheduler(schedConfig{
		clock:   clock,
		shards:  shards,
		seed:    cfg.Seed,
		quantum: cfg.Period / 4,
		loss:    cfg.Loss,
		minLat:  cfg.MinLatency,
		maxLat:  cfg.MaxLatency,
	})
	c := &Cluster{
		part:   cfg.Partition,
		sched:  sched,
		driven: driven,
		cfg:    cfg,
		index:  make(map[core.ID]int, cfg.N),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Telemetry != nil {
		sched.attachTelemetry(cfg.Telemetry)
		c.attachClusterTelemetry(cfg.Telemetry)
	}
	attrs := make([]core.Attr, cfg.N)
	rs := make([]float64, cfg.N)
	for i := range attrs {
		attrs[i] = core.Attr(cfg.AttrDist.Sample(c.rng))
		rs[i] = 1 - c.rng.Float64()
	}
	for i := 0; i < cfg.N; i++ {
		if _, err := c.buildNode(attrs[i], rs[i], nil); err != nil {
			return nil, fmt.Errorf("runtime: node %d: %w", i+1, err)
		}
	}
	// Bootstrap: each node's view holds min(ViewSize, N-1) random others.
	deg := c.bootstrapDegree(cfg.N - 1)
	for i, n := range c.nodes {
		for _, entry := range c.sampleBootstrap(i, deg) {
			n.mem.View().Add(entry)
		}
	}
	return c, nil
}

// sampleBootstrap draws the self entries of up to deg distinct random
// live nodes, excluding the arena index exclude (-1 for none). It backs
// both the construction-time view wiring and Join's live bootstrap.
func (c *Cluster) sampleBootstrap(exclude, deg int) []view.Entry {
	entries := make([]view.Entry, 0, deg)
	n := len(c.nodes)
	seen := make(map[int]bool, deg+1)
	if exclude >= 0 && exclude < n {
		seen[exclude] = true
	}
	for len(entries) < deg && len(seen) < n {
		j := c.rng.Intn(n)
		if seen[j] {
			continue
		}
		seen[j] = true
		entries = append(entries, c.nodes[j].SelfEntry())
	}
	return entries
}

// bootstrapDegree is the number of random peers seeded into a new view:
// a full view, clamped to the number of live peers it can actually
// reference. peers excludes the node being bootstrapped: construction
// passes N-1 (everyone is already in the arena), Join passes
// len(c.nodes) (the joiner is not appended yet). It can be zero — a
// rejoin into a churn-drained cluster starts with an empty view and
// waits for peers.
func (c *Cluster) bootstrapDegree(peers int) int {
	return max(0, min(c.cfg.ViewSize, peers))
}

// buildNode creates the node with the next identifier, appends it to
// the cluster and places it on its scheduler shard. bootstrap may be
// nil (NewCluster seeds views afterwards). Once core.MaxID is issued it
// fails with core.ErrIDRange instead of wrapping onto the reserved ID 0.
func (c *Cluster) buildNode(attr core.Attr, r float64, bootstrap []view.Entry) (*Node, error) {
	if c.nextID == core.MaxID {
		return nil, core.ErrIDRange
	}
	c.nextID++
	id := c.nextID
	nodeCfg := NodeConfig{
		ID:         id,
		Attr:       attr,
		Partition:  c.cfg.Partition,
		ViewSize:   c.cfg.ViewSize,
		Protocol:   c.cfg.Protocol,
		Policy:     c.cfg.Policy,
		Period:     c.cfg.Period,
		JitterFrac: c.cfg.JitterFrac,
		Seed:       c.cfg.Seed,
		Transport:  c.sched.net(),
		InitialR:   r,
		Bootstrap:  bootstrap,
		Trace:      c.cfg.Trace,
	}
	if c.cfg.Protocol == proto.Ranking {
		if c.cfg.Estimators != nil {
			nodeCfg.Estimator = c.cfg.Estimators()
		} else {
			nodeCfg.Estimator = ranking.NewCounter()
		}
	}
	n, err := NewNode(nodeCfg)
	if err != nil {
		c.nextID--
		return nil, err
	}
	c.index[id] = len(c.nodes)
	c.nodes = append(c.nodes, n)
	c.nodeCount.Store(int64(len(c.nodes)))
	c.sched.addNode(n)
	return n, nil
}

// launch registers a node's passive handler and books its first tick at
// a random phase within one period, so freshly started (or joined)
// nodes desynchronize immediately instead of thundering together.
func (c *Cluster) launch(n *Node) {
	c.sched.register(n.ID(), n.handle)
	c.sched.scheduleTick(n, time.Duration(c.rng.Float64()*float64(c.cfg.Period)))
}

// Start launches the scheduler workers and every node.
func (c *Cluster) Start() error {
	if c.stopped {
		return ErrStopped
	}
	if c.started {
		return nil
	}
	c.started = true
	c.sched.start()
	for _, n := range c.nodes {
		c.launch(n)
	}
	return nil
}

// Stop halts the scheduler; nodes stop gossiping.
func (c *Cluster) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.sched.halt()
}

// Advance moves a driven cluster's virtual clock forward by d,
// executing every node tick and message delivery that falls due
// (concurrently, across the scheduler's worker shards) before
// returning. It is the only way time passes under a VirtualClock.
func (c *Cluster) Advance(d time.Duration) error {
	if !c.driven {
		return ErrNotDriven
	}
	if c.stopped {
		// The workers are gone; stepping would park forever waiting for
		// them to drain the released events.
		return ErrStopped
	}
	c.sched.step(d)
	return nil
}

// Nodes returns a snapshot of the cluster's live nodes. The caller owns
// the slice: Kill swap-deletes from (and nils out) the cluster's own
// list, so handing out the backing array would plant nils under
// iterating callers.
func (c *Cluster) Nodes() []*Node {
	return append([]*Node(nil), c.nodes...)
}

// MessageCounts reports the traffic delivered and dropped by the
// cluster's internal network.
func (c *Cluster) MessageCounts() MessageCounts { return c.sched.counts() }

// FaultCounts reports the injections the internal network's fault layer
// (see SetNetFaults) performed so far. The attribute-fault
// fields stay zero: drift and lies are a fault.Applier's, not the
// network's.
func (c *Cluster) FaultCounts() fault.Counts {
	return fault.Counts{
		PartitionDrops: c.sched.faultPartDrops.Load(),
		ChaosDrops:     c.sched.faultChaosDrops.Load(),
		ChaosDups:      c.sched.faultChaosDups.Load(),
		ChaosDelays:    c.sched.faultChaosDelays.Load(),
	}
}

// SetNetFaults replaces the message faults the internal network applies
// to every send scheduled after it returns (a zero net clears them):
// net's partition black-holes cross-group sends, and its chaos verdict
// drops a send, duplicates it, or delays it by delay; both windows must
// pass fault.Plan validation (net is normally fault.Applier.NetAt's).
// Views keep their cross-group entries, so lifting a partition lets the
// overlay re-merge through them; opening and lifting one is traced.
// Like Join/Kill, it must not race other cluster mutations.
func (c *Cluster) SetNetFaults(net fault.Net, delay time.Duration) error {
	if delay < 0 {
		return ErrLatencyRange
	}
	p := fault.Plan{Partition: net.Part}
	if net.Chaos != nil {
		p.Chaos = []fault.Chaos{*net.Chaos}
	}
	if err := p.Validate(c.part.Len()); err != nil {
		return err
	}
	var was *fault.Partition
	if old := c.sched.faults.Load(); old != nil {
		was = old.Part
	}
	switch {
	case was == nil && net.Part != nil:
		c.cfg.Trace.Record(telemetry.TraceEvent{Kind: telemetry.TracePartitionOpen, Slice: net.Part.Groups})
	case was != nil && net.Part == nil:
		c.cfg.Trace.Record(telemetry.TraceEvent{Kind: telemetry.TracePartitionHeal, Slice: was.Groups})
	}
	nf := &netFaults{Net: net, delay: delay}
	if net == (fault.Net{}) {
		nf = nil // keep the honest send path at a single pointer load
	}
	c.sched.setFaults(nf)
	return nil
}

// Join adds one node with the given attribute to the running cluster —
// churn's arrival half (§3.3). The joiner bootstraps from up to
// ViewSize random live nodes and starts gossiping at a random phase
// within the next period. Safe to call while the cluster gossips, but
// not concurrently with other cluster mutations.
func (c *Cluster) Join(attr core.Attr) (*Node, error) {
	if c.stopped {
		return nil, ErrStopped
	}
	bootstrap := c.sampleBootstrap(-1, c.bootstrapDegree(len(c.nodes)))
	n, err := c.buildNode(attr, 1-c.rng.Float64(), bootstrap)
	if err != nil {
		return nil, err
	}
	if c.started {
		c.launch(n)
	}
	c.telJoins.Inc()
	return n, nil
}

// Kill crashes one node (churn's departure half): it stops gossiping
// and leaves without any goodbye — crash and departure are
// indistinguishable (§3.3). Queued deliveries to it are dropped.
func (c *Cluster) Kill(id core.ID) bool {
	i, ok := c.index[id]
	if !ok {
		return false
	}
	c.sched.removeNode(id)
	last := len(c.nodes) - 1
	if i != last {
		c.nodes[i] = c.nodes[last]
		c.index[c.nodes[i].ID()] = i
	}
	c.nodes[last] = nil
	c.nodes = c.nodes[:last]
	c.nodeCount.Store(int64(len(c.nodes)))
	delete(c.index, id)
	c.telKills.Inc()
	return true
}

// States snapshots all live nodes for measurement.
func (c *Cluster) States() []metrics.NodeState {
	states := make([]metrics.NodeState, 0, len(c.nodes))
	for _, n := range c.nodes {
		st := n.Status()
		states = append(states, metrics.NodeState{
			Member:     core.Member{ID: st.ID, Attr: st.Attr},
			R:          st.R,
			SliceIndex: st.SliceIx,
		})
	}
	return states
}

// SDM returns the cluster's current slice disorder measure.
func (c *Cluster) SDM() float64 {
	return metrics.SDM(c.States(), c.part)
}

// MisassignedFraction returns the fraction of nodes currently claiming
// the wrong slice.
func (c *Cluster) MisassignedFraction() float64 {
	return metrics.MisassignedFraction(c.States(), c.part)
}

// AwaitSDM polls until the SDM drops to at most target or the timeout
// expires, returning the last observed value and whether the target was
// met. On a driven cluster the timeout is virtual — one period of it is
// consumed per probe and no wall time passes; on a wall-clock cluster
// it is a real deadline that also covers the measurement cost itself.
// Like every cluster mutation, it must not race Stop: the stopped
// checks below cover the sequential called-after-Stop case, not a
// concurrent Stop from another goroutine.
func (c *Cluster) AwaitSDM(target float64, timeout time.Duration) (float64, bool) {
	if c.driven {
		last := c.SDM()
		for waited := time.Duration(0); ; waited += c.cfg.Period {
			if last <= target {
				return last, true
			}
			if waited >= timeout || c.stopped {
				return last, false
			}
			c.sched.step(c.cfg.Period)
			last = c.SDM()
		}
	}
	deadline := time.Now().Add(timeout)
	last := c.SDM()
	for {
		if last <= target {
			return last, true
		}
		if time.Now().After(deadline) || c.stopped {
			return last, false
		}
		time.Sleep(5 * time.Millisecond)
		last = c.SDM()
	}
}
