// Package runtime executes the slicing protocols live: each node runs
// an active thread ticking every gossip period and a passive thread
// handling incoming messages (the two threads of Figs. 2, 3 and 5 of
// the paper), communicating over a Transport.
//
// A standalone Node (NewNode + Start) owns a goroutine for its active
// thread and lets its Transport drive the passive one — the natural
// shape for one process per node. A Cluster instead multiplexes all of
// its nodes onto a sharded scheduler (see sched.go): a fixed worker
// pool drains per-shard timer wheels of node ticks and message
// deliveries, so a single process sustains live clusters of 10,000+
// gossiping nodes. Behind a Clock abstraction the same cluster runs in
// wall time or — handed a VirtualClock — in driven virtual time, where
// Cluster.Advance executes the due work concurrently and returns
// without sleeping.
//
// The same protocol state machines the simulator drives cycle-by-cycle
// run here under real concurrency, message loss and crashes. Unlike the
// simulator, a live node resolves neighbor coordinates only from its own
// view — it ticks the simulator's kernels on an empty coordinate table
// (proto.CoordTable): there is no global oracle.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/membership"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/telemetry"
	"github.com/gossipkit/slicing/internal/transport"
	"github.com/gossipkit/slicing/internal/view"
)

// Jitter configuration. A zero JitterFrac historically meant "use the
// default", which made an intentionally jitter-free node impossible to
// request; the explicit sentinel closes that gap.
const (
	// DefaultJitterFrac is the period desynchronization applied when
	// JitterFrac is left at its zero value.
	DefaultJitterFrac = 0.1
	// JitterNone requests strictly periodic ticks (no jitter). Any
	// negative JitterFrac means the same.
	JitterNone = -1.0
)

// effectiveJitter resolves the JitterFrac convention shared by
// NodeConfig and ClusterConfig: negative = none, zero = default.
func effectiveJitter(f float64) float64 {
	switch {
	case f < 0:
		return 0
	case f == 0:
		return DefaultJitterFrac
	default:
		return f
	}
}

// Node configuration errors.
var (
	ErrNoTransport = errors.New("runtime: config needs a transport")
	ErrNoEstimator = errors.New("runtime: ranking config needs an estimator")
	ErrBadPeriod   = errors.New("runtime: period must be positive")
	ErrBadJitter   = errors.New("runtime: JitterFrac must be below 1 (a full-period jitter makes periods non-positive)")
	ErrBadProtocol = errors.New("runtime: unknown protocol")
	ErrStarted     = errors.New("runtime: node already started")
)

// NodeConfig parameterizes a live node.
type NodeConfig struct {
	ID        core.ID
	Attr      core.Attr
	Partition core.Partition
	// ViewSize is the gossip view capacity c.
	ViewSize int
	// Protocol selects ordering (§4) or ranking (§5).
	Protocol proto.Kind
	// Policy selects JK / mod-JK (Ordering only; default mod-JK).
	Policy ordering.Policy
	// Estimator is the ranking estimator instance (Ranking only).
	Estimator ranking.Estimator
	// Period is the gossip period (Figs. 2/5: wait(period)). Required.
	Period time.Duration
	// JitterFrac desynchronizes periods by ±JitterFrac·Period. Zero
	// means DefaultJitterFrac; pass JitterNone (or any negative value)
	// for strictly periodic ticks.
	JitterFrac float64
	// Seed, mixed with ID, positions the node's private rng stream
	// (core.NodeStream): nodes of one run may all share a Seed.
	Seed int64
	// Bootstrap seeds the initial view.
	Bootstrap []view.Entry
	// Transport delivers the node's messages. Required.
	Transport transport.Transport
	// InitialR is the ordering protocol's random draw; 0 draws from the
	// node's rng.
	InitialR float64
	// Telemetry, when non-nil, receives this node's metrics (ticks,
	// slice changes, send outcomes, live slice/rank/view gauges). Meant
	// for standalone nodes — a Cluster registers scheduler-level
	// aggregates instead of 10k per-node series.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records the node's protocol decision events
	// (view exchanges, swap attempts, boundary crossings, rank updates).
	Trace *telemetry.TraceRing
}

// Status is a point-in-time snapshot of a node.
type Status struct {
	ID      core.ID
	Attr    core.Attr
	R       float64
	SliceIx int
	Slice   core.Slice
	Samples int
	ViewLen int
	// Ticks counts the gossip periods the active thread has completed:
	// the node's own convergence clock, used by the serving layer to
	// derive staleness bounds.
	Ticks int
	// RecvGap is the number of consecutive ticks the passive thread has
	// gone without receiving a single message. A warmed-up node with a
	// large gap is effectively cut off from the overlay — the serving
	// layer's partition detector (serving.DefaultStarvationTicks) reads
	// this to flag degraded answers.
	RecvGap int
}

// SliceChangeFunc observes slice reassignments. Callbacks run on the
// node's gossip goroutines, outside the node lock; keep them fast and do
// not call back into the node synchronously from them.
type SliceChangeFunc func(node core.ID, old, new int)

// sliceWatch is one registered slice-change subscription.
type sliceWatch struct {
	id int
	fn SliceChangeFunc
}

// Node is a live protocol participant.
type Node struct {
	// The fields a tick or a delivery reads come first: the scheduler
	// prefetches the struct up to part (see footprint).
	mu          sync.Mutex
	slicer      proto.Node
	mem         membership.Protocol
	rng         core.Stream // eight bytes by value; guarded by mu
	pendingView core.ID     // target of the in-flight view exchange, 0 if none
	ticks       int
	lastRecv    int // ticks value when the passive thread last received
	lastSlice   int
	tr          transport.Transport
	tel         *nodeTelemetry       // nil when no registry was configured
	trace       *telemetry.TraceRing // nil-safe: Record on nil is a no-op
	period      time.Duration
	jitter      float64
	watches     []sliceWatch

	part      core.Partition
	nextWatch int

	// A standalone node's active thread (Start/Stop). A cluster node
	// never starts one, so the channels are made by Start.
	started, stopped bool
	stop, done       chan struct{}
}

// footprint is where a node's tick and handler first read, recorded
// once when the node takes its shard slot: the head of the Node, its
// membership struct, its view's header, and the view's entry and ID
// blocks, which view.New allocates at capacity and never moves. Span
// lengths are counted in 64-byte units, one byte each. The pointers keep
// what they point at alive, as the node does.
type footprint struct {
	p     [fpSpans]unsafe.Pointer
	units [fpSpans]uint8
}

// The footprint's spans.
const (
	fpNode = iota
	fpMem
	fpView
	fpEntries
	fpIDs
	fpSpans
)

// footprint records where n's event handling first reads.
func (n *Node) footprint() footprint {
	var fp footprint
	set := func(i int, p unsafe.Pointer, size uintptr) {
		fp.p[i], fp.units[i] = p, uint8(min((size+63)/64, math.MaxUint8))
	}
	set(fpNode, unsafe.Pointer(n), unsafe.Offsetof(n.part))
	if m, ok := n.mem.(*membership.Cyclon); ok {
		set(fpMem, unsafe.Pointer(m), unsafe.Sizeof(*m))
	}
	v := n.mem.View()
	set(fpView, unsafe.Pointer(v), unsafe.Sizeof(*v))
	ents, ids := v.Blocks()
	set(fpEntries, unsafe.Pointer(unsafe.SliceData(ents)), uintptr(len(ents))*unsafe.Sizeof(view.Entry{}))
	set(fpIDs, unsafe.Pointer(unsafe.SliceData(ids)), uintptr(len(ids))*unsafe.Sizeof(core.ID(0)))
	return fp
}

// prefetch starts loading every span of the footprint; an empty one
// (the zero footprint) loads nothing.
func (fp *footprint) prefetch() {
	for i, p := range fp.p {
		core.Prefetch(p, uintptr(fp.units[i])*64)
	}
}

// NewNode builds a live node. Start must be called to begin gossiping.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Transport == nil {
		return nil, ErrNoTransport
	}
	if cfg.Period <= 0 {
		return nil, ErrBadPeriod
	}
	if cfg.JitterFrac >= 1 {
		return nil, ErrBadJitter
	}
	rng := core.NodeStream(cfg.Seed, uint64(cfg.ID))
	v, err := view.New(cfg.ViewSize)
	if err != nil {
		return nil, err
	}
	for _, e := range cfg.Bootstrap {
		if e.ID != cfg.ID {
			v.Add(e)
		}
	}
	var slicer proto.Node
	switch cfg.Protocol {
	case proto.Ordering:
		policy := cfg.Policy
		if policy == 0 {
			policy = ordering.SelectMaxGain
		}
		r := cfg.InitialR
		if r == 0 {
			r = 1 - rng.Float64()
		}
		n, err := ordering.NewNode(ordering.Config{
			ID: cfg.ID, Attr: cfg.Attr, Partition: cfg.Partition,
			Policy: policy, View: v, InitialR: r,
		})
		if err != nil {
			return nil, err
		}
		slicer = n
	case proto.Ranking:
		if cfg.Estimator == nil {
			return nil, ErrNoEstimator
		}
		n, err := ranking.NewNode(ranking.Config{
			ID: cfg.ID, Attr: cfg.Attr, Partition: cfg.Partition,
			Estimator: cfg.Estimator, View: v,
		})
		if err != nil {
			return nil, err
		}
		slicer = n
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadProtocol, int(cfg.Protocol))
	}
	node := &Node{
		part:   cfg.Partition,
		tr:     cfg.Transport,
		slicer: slicer,
		mem:    membership.NewCyclon(cfg.ID, slicer.SelfEntry, v),
		rng:    rng,
		period: cfg.Period,
		jitter: effectiveJitter(cfg.JitterFrac),
		trace:  cfg.Trace,
	}
	node.lastSlice = slicer.SliceIndex()
	if on, ok := slicer.(*ordering.Node); ok {
		on.SetTrace(cfg.Trace)
	}
	if cfg.Telemetry != nil {
		node.attachNodeTelemetry(cfg.Telemetry)
	}
	return node, nil
}

// OnSliceChange registers a callback fired whenever the node's believed
// slice changes (including the churn-driven reassignments of §3.3).
// Callbacks may be registered at any time — before or after Start — and
// observe changes from registration onward. Multiple callbacks may be
// registered; each fires for every change. It returns a cancel function
// that removes the registration (the serving layer's WatchBoundary uses
// it to detach subscribers).
func (n *Node) OnSliceChange(fn SliceChangeFunc) (cancel func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextWatch++
	id := n.nextWatch
	n.watches = append(n.watches, sliceWatch{id: id, fn: fn})
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		for i, w := range n.watches {
			if w.id == id {
				n.watches = append(n.watches[:i], n.watches[i+1:]...)
				return
			}
		}
	}
}

// notifySliceChange compares the current slice with the last observed
// one and returns a pending callback invocation, or nil. Callers invoke
// the result after releasing the lock.
func (n *Node) notifySliceChange() func() {
	cur := n.slicer.SliceIndex()
	if cur == n.lastSlice {
		return nil
	}
	old := n.lastSlice
	n.lastSlice = cur
	n.trace.Record(telemetry.TraceEvent{
		Kind: telemetry.TraceBoundaryCross, Node: uint64(n.slicer.ID()),
		OldSlice: old, Slice: cur, Rank: n.slicer.Estimate(),
	})
	if n.tel != nil {
		n.tel.sliceChanges.Inc()
	}
	if len(n.watches) == 0 {
		return nil
	}
	fns := make([]SliceChangeFunc, len(n.watches))
	for i, w := range n.watches {
		fns[i] = w.fn
	}
	id := n.slicer.ID()
	return func() {
		for _, fn := range fns {
			fn(id, old, cur)
		}
	}
}

// ID returns the node identity.
func (n *Node) ID() core.ID { return n.slicer.ID() }

// Start registers the node on its transport and launches the active
// thread. Calling Start twice returns ErrStarted; Start after Stop
// returns ErrStopped and neither registers nor launches anything.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return ErrStopped
	}
	if n.started {
		return ErrStarted
	}
	n.started = true
	// Register does not call the handler synchronously, so holding mu
	// here cannot deadlock a delivery; it only waits for this to return.
	if err := n.tr.Register(n.ID(), n.handle); err != nil {
		return err
	}
	n.stop, n.done = make(chan struct{}), make(chan struct{})
	go n.loop()
	return nil
}

// Stop halts the active thread and deregisters from the transport.
// It is idempotent and safe to call before Start or after Start failed.
func (n *Node) Stop() {
	n.mu.Lock()
	stop, done := n.stop, n.done
	first := !n.stopped
	n.stopped = true
	n.mu.Unlock()
	if first && done != nil {
		close(stop)
		<-done
		n.tr.Unregister(n.ID())
	}
}

// loop is the active thread: wait(period), gossip, repeat.
func (n *Node) loop() {
	defer close(n.done)
	timer := time.NewTimer(n.nextPeriod())
	defer timer.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-timer.C:
			n.tick()
			timer.Reset(n.nextPeriod())
		}
	}
}

func (n *Node) nextPeriod() time.Duration {
	if n.jitter <= 0 {
		return n.period
	}
	n.mu.Lock()
	f := 1 + n.jitter*(2*n.rng.Float64()-1)
	n.mu.Unlock()
	return time.Duration(float64(n.period) * f)
}

// tick runs one active-thread period: view exchange, then the slicing
// protocol step.
func (n *Node) tick() {
	n.mu.Lock()
	n.ticks++
	// A view request that was never answered counts as a timeout: the
	// target is presumed gone (§3.3: crash and departure look alike).
	if n.pendingView != 0 {
		n.mem.OnTimeout(n.pendingView)
		n.pendingView = 0
	}
	memEnvs := n.mem.Tick(&n.rng)
	if len(memEnvs) > 0 {
		n.pendingView = memEnvs[0].To
	}
	slEnvs := n.slicer.Tick(&n.rng)
	id := n.slicer.ID()
	notify := n.notifySliceChange()
	n.mu.Unlock()
	if notify != nil {
		notify()
	}
	if n.tel != nil {
		n.tel.ticks.Inc()
	}
	if len(memEnvs) > 0 {
		n.trace.Record(telemetry.TraceEvent{
			Kind: telemetry.TraceViewExchange, Node: uint64(id), Peer: uint64(memEnvs[0].To),
		})
	}

	for _, env := range memEnvs {
		n.countSend(n.tr.Send(id, env.To, env.Msg), func(err error) {
			n.mu.Lock()
			n.mem.OnTimeout(env.To)
			if n.pendingView == env.To {
				n.pendingView = 0
			}
			n.mu.Unlock()
		})
	}
	for _, env := range slEnvs {
		// Gossip tolerates loss: a failed send is simply retried with a
		// different partner next period.
		n.countSend(n.tr.Send(id, env.To, env.Msg), nil)
	}
}

// countSend tallies a send outcome and runs onErr for failures.
func (n *Node) countSend(err error, onErr func(error)) {
	if n.tel != nil {
		n.tel.sends.Inc()
		if err != nil {
			n.tel.sendErrs.Inc()
		}
	}
	if err != nil && onErr != nil {
		onErr(err)
	}
}

// handle is the passive thread: it processes one incoming message.
func (n *Node) handle(from core.ID, msg proto.Message) {
	n.mu.Lock()
	n.lastRecv = n.ticks
	var replies []proto.Envelope
	switch m := msg.(type) {
	case proto.ViewRequest:
		replies = n.mem.HandleRequest(from, m, &n.rng)
	case proto.ViewReply:
		n.mem.HandleReply(from, m)
		if n.pendingView == from {
			n.pendingView = 0
		}
	default:
		replies = n.slicer.Handle(from, msg, &n.rng)
		if _, isRank := msg.(proto.RankUpdate); isRank && n.trace != nil {
			n.trace.Record(telemetry.TraceEvent{
				Kind: telemetry.TraceRankUpdate, Node: uint64(n.slicer.ID()),
				Peer: uint64(from), Rank: n.slicer.Estimate(),
			})
		}
	}
	id := n.slicer.ID()
	notify := n.notifySliceChange()
	n.mu.Unlock()
	if notify != nil {
		notify()
	}

	for _, env := range replies {
		n.countSend(n.tr.Send(id, env.To, env.Msg), nil)
	}
}

// Status snapshots the node.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	ix := n.slicer.SliceIndex()
	st := Status{
		ID:      n.slicer.ID(),
		Attr:    n.slicer.Member().Attr,
		R:       n.slicer.Estimate(),
		SliceIx: ix,
		Slice:   n.part.Slice(ix),
		ViewLen: n.mem.View().Len(),
		Ticks:   n.ticks,
		RecvGap: n.ticks - n.lastRecv,
	}
	if rn, ok := n.slicer.(*ranking.Node); ok {
		st.Samples = rn.Samples()
	}
	return st
}

// SelfEntry returns a fresh view entry for bootstrapping other nodes.
func (n *Node) SelfEntry() view.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.slicer.SelfEntry()
}

// ViewEntries snapshots the node's current view: the (attribute,
// coordinate) sample a real distributed node can answer queries from.
// The serving layer builds its local rank interpolation over it.
func (n *Node) ViewEntries() []view.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem.View().Entries()
}

// Partition returns the slice partition the node was configured with.
func (n *Node) Partition() core.Partition { return n.part }

// SetAttr replaces the node's attribute value mid-run — the live hook
// the fault plane uses for attribute drift and byzantine misreporting.
// The protocol keeps running: subsequent gossip advertises the new
// value, and the estimators re-converge toward its rank (the window
// estimator forgets, the counter dilutes).
func (n *Node) SetAttr(a core.Attr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch s := n.slicer.(type) {
	case *ordering.Node:
		s.SetAttr(a)
	case *ranking.Node:
		s.SetAttr(a)
	}
}

// OrderingStats returns the node's ordering event counters; ok is false
// for non-ordering nodes. Measurement collectors use it to compute the
// per-period unsuccessful-swap percentage (Fig. 4(c)) for live runs.
func (n *Node) OrderingStats() (ordering.Stats, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	on, ok := n.slicer.(*ordering.Node)
	if !ok {
		return ordering.Stats{}, false
	}
	return on.Stats(), true
}
