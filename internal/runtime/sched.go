package runtime

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/transport"
)

// The sharded scheduler replaces the runtime's original
// two-goroutines-per-node design (an active ticker loop plus a passive
// transport goroutine per node) with a fixed worker pool: nodes are
// assigned to shards by id, each shard owns a timer wheel (a min-heap of
// timed events — node ticks and message deliveries) drained by one
// worker goroutine, and passive handlers are dispatched on the shard
// that owns the destination node. A shard finds a node by slice
// index, not by hash: cluster IDs are dense, so id/shards is the node's
// slot on shard id%shards, and the slot holds its handler, its *Node and
// the addresses its handler reads first, which a driven worker
// prefetches a few events ahead of running them. A cluster of N nodes
// therefore costs O(shards) goroutines instead of O(N), which is what
// lets a live in-process cluster scale past 10,000 gossiping nodes.
//
// The scheduler runs in one of two modes, decided by the cluster's
// Clock:
//
//   - Free-running (wall clock): each worker sleeps until its shard's
//     earliest deadline and executes events as real time passes. This is
//     the production mode.
//   - Driven (VirtualClock): events execute only inside step(), which
//     advances virtual time in small batches, releases every event that
//     falls due, and waits for the workers to drain them. Ticks within a
//     batch still execute concurrently across shards — the code paths
//     and locking are identical to the free-running mode — but no wall
//     time is spent waiting for periods to elapse, so tests and the live
//     scenario backend are compute-bound and deadline-free.
//
// Message traffic between cluster nodes is routed by the scheduler
// itself (schedNet below): a send is a loss/latency draw plus an event
// push on the destination shard, so no per-node inbox goroutines exist
// and virtual-time runs model latency on the virtual timeline.

// event is one entry of a shard's timer wheel: a node tick (node != nil)
// or a message delivery.
type event struct {
	at   int64  // deadline, in nanoseconds since the scheduler's origin
	seq  uint64 // tie-break: events with equal deadlines keep push order
	node *Node  // tick target; nil for deliveries
	from core.ID
	to   core.ID // the destination's slot: the delivery's receiver or the ticking node
	msg  proto.Message
}

// before is the wheel's order: deadline, then push order. seq is unique,
// so the order is total and the pop sequence does not depend on how the
// heap happens to be laid out.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventHeap is a binary min-heap over (at, seq). Implemented inline (not
// via container/heap) so pushes and pops stay interface-free on the hot
// path. Both sifts move a hole instead of swapping: one event copy per
// level instead of two. (A 4-ary heap, half as deep at the ~20k events
// a 10k-node cluster keeps pending, measured no faster end to end: each
// of its levels reads four children instead of two.)
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = event{} // release msg/node references
	q := old[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// shardCounts are the per-shard delivery tallies; split into atomics so
// workers and senders update them without taking the shard lock.
type shardCounts struct {
	viewReq, viewRep, swapReq, swapRep, rankUpd, dropped atomic.Uint64
}

// slot is one node's place on its shard: the handler its deliveries
// dispatch to (nil when none is registered) and where the node whose
// ticks the shard runs first reads, its own address included. An empty
// slot is the zero value and holds no pointers.
type slot struct {
	handler transport.Handler
	fp      footprint
}

// node is the slot's node: nil for a handler-only registration.
func (sl *slot) node() *Node { return (*Node)(sl.fp.p[fpNode]) }

// shard owns a subset of the cluster's nodes: their tick events, the
// deliveries addressed to them, and the slots used to dispatch those
// deliveries. One worker goroutine drains it.
type shard struct {
	mu        sync.Mutex
	wheel     eventHeap  // future events
	ready     []event    // due events awaiting the worker (driven mode)
	readyHead int        // first unconsumed ready event
	slots     []slot     // indexed by id / len(scheduler.shards); grows on demand
	rng       *rand.Rand // transport loss/latency draws; guarded by mu
	notify    chan struct{}
	counts    shardCounts
	// timer is the worker's reusable deadline timer (wall-clock mode
	// only; touched exclusively by the shard's worker goroutine). A
	// fresh time.After per idle wait would leak one unstoppable runtime
	// timer per wait on the scheduler's hottest path.
	timer *time.Timer
}

// slot returns slot i, or nil past the end of the slice.
func (sh *shard) slot(i uint64) *slot {
	if i >= uint64(len(sh.slots)) {
		return nil
	}
	return &sh.slots[i]
}

// grow returns slot i, extending the slice to hold it. Cluster IDs are
// dense (1..N, then one more per Join, never reused), so a shard holds
// one slot per ID it was ever issued, 56 bytes each.
func (sh *shard) grow(i uint64) *slot {
	if n := i + 1; n > uint64(len(sh.slots)) {
		sh.slots = append(sh.slots, make([]slot, n-uint64(len(sh.slots)))...)
	}
	return &sh.slots[i]
}

// prefetch starts loading the footprint of the node in slot i, if any.
func (sh *shard) prefetch(i uint64) {
	if sl := sh.slot(i); sl != nil {
		sl.fp.prefetch()
	}
}

func (sh *shard) wake() {
	select {
	case sh.notify <- struct{}{}:
	default:
	}
}

// schedConfig parameterizes a scheduler.
type schedConfig struct {
	clock  Clock
	shards int
	seed   int64
	// quantum is the driven-mode batch width: events within one quantum
	// of the earliest pending deadline are released together and execute
	// concurrently across shards. Smaller quanta order events more
	// precisely; larger quanta expose more parallelism.
	quantum time.Duration
	// loss and latency bounds for the internal network.
	loss           float64
	minLat, maxLat time.Duration
}

// scheduler is the sharded event engine described at the top of this
// file.
type scheduler struct {
	cfg    schedConfig
	clock  Clock
	vclock *VirtualClock // non-nil in driven mode
	// origin is time zero of every event deadline: virtualEpoch in
	// driven mode (so a deadline reads like VirtualClock.nanos), the
	// clock's reading at construction otherwise.
	origin time.Time
	shards []*shard
	seq    atomic.Uint64
	// tel holds the scrape-path-independent instruments (histograms and
	// the tick counter); nil — the default — keeps the hot path free of
	// telemetry entirely. The tallies and queue depths are read via
	// callback metrics instead (see telemetry.go).
	tel *schedTelemetry

	// Driven-mode quiescence accounting: pending counts released-but-
	// unfinished events; stepTarget is the current batch end (nanos since
	// virtualEpoch, math.MinInt64 outside a step) so sends that land
	// inside the batch go straight to the ready queue.
	pending    atomic.Int64
	stepTarget atomic.Int64
	idleMu     sync.Mutex
	idleCond   *sync.Cond

	stop    chan struct{}
	done    sync.WaitGroup
	started bool

	// faults is the internal network's fault-injection state; nil (the
	// default) injects nothing and costs one atomic load per send.
	// Mutations happen between driven steps (or from the cluster's
	// control API) and become visible atomically, so no send ever sees a
	// half-written configuration.
	faults atomic.Pointer[netFaults]
	// Fault-injection tallies (cumulative, scrape-path metrics).
	faultPartDrops, faultChaosDrops, faultChaosDups, faultChaosDelays atomic.Uint64
}

// netFaults configures the internal network's injected faults: the
// fault.Net every send asks (its chaos verdict keyed on the send's
// sequence number), and the latency a chaos-delayed send gains.
type netFaults struct {
	fault.Net
	delay time.Duration
}

// setFaults installs (or clears, with nil) the fault configuration.
func (s *scheduler) setFaults(nf *netFaults) { s.faults.Store(nf) }

func newScheduler(cfg schedConfig) *scheduler {
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	if cfg.quantum <= 0 {
		cfg.quantum = time.Millisecond
	}
	s := &scheduler{cfg: cfg, clock: cfg.clock, stop: make(chan struct{})}
	if vc, ok := cfg.clock.(*VirtualClock); ok {
		s.vclock = vc
		s.origin = virtualEpoch
	} else {
		s.origin = cfg.clock.Now()
	}
	s.stepTarget.Store(math.MinInt64)
	s.idleCond = sync.NewCond(&s.idleMu)
	for i := 0; i < cfg.shards; i++ {
		s.shards = append(s.shards, &shard{
			rng:    rand.New(rand.NewSource(cfg.seed ^ int64(0x9E3779B97F4A7C15+uint64(i)*0xBF58476D1CE4E5B9))),
			notify: make(chan struct{}, 1),
		})
	}
	return s
}

func (s *scheduler) driven() bool { return s.vclock != nil }

// now reads the clock in deadline units: nanoseconds since the origin.
func (s *scheduler) now() int64 {
	if s.vclock != nil {
		return s.vclock.nanos.Load()
	}
	return int64(s.clock.Now().Sub(s.origin))
}

func (s *scheduler) shardFor(id core.ID) *shard {
	return s.shards[uint64(id)%uint64(len(s.shards))]
}

// slotOf is id's slot index on its shard.
func (s *scheduler) slotOf(id core.ID) uint64 { return uint64(id) / uint64(len(s.shards)) }

// start launches one worker per shard.
func (s *scheduler) start() {
	if s.started {
		return
	}
	s.started = true
	for _, sh := range s.shards {
		s.done.Add(1)
		go s.worker(sh)
	}
}

// halt stops the workers; unexecuted events are discarded.
func (s *scheduler) halt() {
	select {
	case <-s.stop:
		return
	default:
	}
	close(s.stop)
	s.done.Wait()
}

// addNode places a node in its shard slot and records the node's
// footprint there. The first tick must be scheduled separately
// (scheduleTick) once the cluster starts.
func (s *scheduler) addNode(n *Node) {
	sh := s.shardFor(n.ID())
	sh.mu.Lock()
	sh.grow(s.slotOf(n.ID())).fp = n.footprint()
	sh.mu.Unlock()
}

// register binds the delivery handler for a node on the internal
// network.
func (s *scheduler) register(id core.ID, h transport.Handler) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	sh.grow(s.slotOf(id)).handler = h
	sh.mu.Unlock()
}

// removeNode detaches a node: its future tick is not rescheduled and
// deliveries addressed to it are counted as dropped (a crash leaves no
// goodbye). The slot is emptied, so it pins nothing of the node.
func (s *scheduler) removeNode(id core.ID) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	if sl := sh.slot(s.slotOf(id)); sl != nil {
		*sl = slot{}
	}
	sh.mu.Unlock()
}

// scheduleTick books a node's next active-thread tick after delay.
func (s *scheduler) scheduleTick(n *Node, delay time.Duration) {
	s.scheduleTickAt(n, s.now()+int64(delay))
}

func (s *scheduler) scheduleTickAt(n *Node, at int64) {
	s.push(s.shardFor(n.ID()), event{at: at, node: n, to: n.ID()})
}

// push inserts an event on a shard's wheel — or, when a driven step is
// in flight and the event falls inside the current batch, straight onto
// the ready queue so zero-latency deliveries complete within the batch
// that produced them.
func (s *scheduler) push(sh *shard, ev event) {
	sh.mu.Lock()
	s.pushLocked(sh, ev)
	sh.mu.Unlock()
	sh.wake()
}

// pushLocked is push with sh.mu already held (the send hot path folds
// the insertion into its existing critical section).
func (s *scheduler) pushLocked(sh *shard, ev event) {
	ev.seq = s.seq.Add(1)
	if s.driven() && ev.at <= s.stepTarget.Load() {
		sh.ready = append(sh.ready, ev)
		s.pending.Add(1)
	} else {
		sh.wheel.push(ev)
	}
}

// lookAhead is how far down the ready queue the worker prefetches: on
// taking event k it starts loading the footprint of event k+lookAhead's
// destination, so the lines arrive while events k and k+1 run.
const lookAhead = 2

// worker drains one shard: ready events first (driven mode), then due
// wheel events (free-running mode), then sleeps until the next deadline
// or a wake-up. It reads the event's destination slot in the same
// critical section that takes the event.
func (s *scheduler) worker(sh *shard) {
	defer s.done.Done()
	for {
		sh.mu.Lock()
		var ev event
		have := false
		if sh.readyHead < len(sh.ready) {
			ev = sh.ready[sh.readyHead]
			sh.ready[sh.readyHead] = event{} // release msg/node references
			if k := sh.readyHead + lookAhead; k < len(sh.ready) {
				sh.prefetch(s.slotOf(sh.ready[k].to))
			}
			sh.readyHead++
			if sh.readyHead == len(sh.ready) {
				sh.ready, sh.readyHead = sh.ready[:0], 0
			}
			have = true
		} else if !s.driven() && len(sh.wheel) > 0 && sh.wheel[0].at <= s.now() {
			ev = sh.wheel.pop()
			have = true
		}
		var h transport.Handler
		var n *Node
		if have {
			if sl := sh.slot(s.slotOf(ev.to)); sl != nil {
				h, n = sl.handler, sl.node()
			}
		}
		var wait <-chan time.Time
		if !have && !s.driven() && len(sh.wheel) > 0 {
			d := time.Duration(sh.wheel[0].at - s.now())
			if _, real := s.clock.(realClock); real {
				// Reuse one timer per shard. Only this worker touches
				// it, and Go 1.23+ timer semantics guarantee Reset
				// leaves no stale fire in the channel.
				if sh.timer == nil {
					sh.timer = time.NewTimer(d)
				} else {
					sh.timer.Reset(d)
				}
				wait = sh.timer.C
			} else {
				wait = s.clock.After(d)
			}
		}
		sh.mu.Unlock()
		if have {
			s.execute(sh, ev, h, n)
			if s.driven() {
				s.finish()
			}
			continue
		}
		select {
		case <-s.stop:
			return
		case <-sh.notify:
		case <-wait:
		}
	}
}

// execute runs one event on the worker's goroutine; h and n are what
// the event's destination slot held when the worker took it. Tick
// events run the node's active thread and rebook the next period;
// delivery events dispatch the passive handler.
func (s *scheduler) execute(sh *shard, ev event, h transport.Handler, n *Node) {
	if s.tel != nil {
		// Timer lag: how far behind its deadline the event runs. In
		// driven mode this is bounded by the quantum; in wall-clock mode
		// it surfaces worker backlog.
		s.tel.timerLag.Observe(time.Duration(s.now() - ev.at).Seconds())
		if ev.node != nil {
			s.tel.ticks.Inc()
		}
	}
	if ev.node != nil {
		if n != ev.node {
			return // killed after this tick was booked
		}
		ev.node.tick()
		// Rebook from the tick's DUE time, not the clock: driven batches
		// execute events up to one quantum after their deadline, and
		// free-running workers add processing delay — basing the next
		// period on Now() would compound that into systematic period
		// drift. Clamp to Now() so a node that fell behind does not
		// accumulate a past-due backlog.
		next := ev.at + int64(ev.node.nextPeriod())
		if now := s.now(); next < now {
			next = now
		}
		s.scheduleTickAt(ev.node, next)
		return
	}
	if h == nil {
		sh.counts.dropped.Add(1)
		return
	}
	switch ev.msg.(type) {
	case proto.ViewRequest:
		sh.counts.viewReq.Add(1)
	case proto.ViewReply:
		sh.counts.viewRep.Add(1)
	case proto.SwapRequest:
		sh.counts.swapReq.Add(1)
	case proto.SwapReply:
		sh.counts.swapRep.Add(1)
	case proto.RankUpdate:
		sh.counts.rankUpd.Add(1)
	}
	h(ev.from, ev.msg)
}

// finish retires one driven-mode event and wakes step when the engine
// quiesces.
func (s *scheduler) finish() {
	if s.pending.Add(-1) == 0 {
		s.idleMu.Lock()
		s.idleCond.Broadcast()
		s.idleMu.Unlock()
	}
}

func (s *scheduler) waitIdle() {
	s.idleMu.Lock()
	for s.pending.Load() != 0 {
		s.idleCond.Wait()
	}
	s.idleMu.Unlock()
}

// step advances virtual time by d, executing every event that falls due.
// Events are released in batches one quantum wide: all events within the
// batch run concurrently across the shard workers (their relative order
// inside the quantum is scheduling noise, exactly like network jitter),
// and step waits for full quiescence between batches so causality across
// quanta is preserved. Returns with every event at or before the new
// virtual now executed.
func (s *scheduler) step(d time.Duration) {
	target := s.now() + int64(d)
	for {
		var earliest int64
		none := true
		for _, sh := range s.shards {
			sh.mu.Lock()
			if len(sh.wheel) > 0 && (none || sh.wheel[0].at < earliest) {
				earliest = sh.wheel[0].at
				none = false
			}
			sh.mu.Unlock()
		}
		if none || earliest > target {
			break
		}
		batchEnd := min(earliest+int64(s.cfg.quantum), target)
		s.vclock.advanceTo(batchEnd)
		s.stepTarget.Store(batchEnd)
		for _, sh := range s.shards {
			released := 0
			sh.mu.Lock()
			for len(sh.wheel) > 0 && sh.wheel[0].at <= batchEnd {
				sh.ready = append(sh.ready, sh.wheel.pop())
				released++
			}
			if released > 0 {
				s.pending.Add(int64(released))
			}
			sh.mu.Unlock()
			if released > 0 {
				sh.wake()
			}
		}
		s.waitIdle()
		s.stepTarget.Store(math.MinInt64)
	}
	s.vclock.advanceTo(target)
}

// counts sums the per-shard tallies: messages delivered by the internal
// network, plus those dropped by loss injection, full queues or departed
// destinations.
func (s *scheduler) counts() proto.MessageCounts {
	var m proto.MessageCounts
	for _, sh := range s.shards {
		m.ViewRequests += sh.counts.viewReq.Load()
		m.ViewReplies += sh.counts.viewRep.Load()
		m.SwapRequests += sh.counts.swapReq.Load()
		m.SwapReplies += sh.counts.swapRep.Load()
		m.RankUpdates += sh.counts.rankUpd.Load()
		m.Dropped += sh.counts.dropped.Load()
	}
	return m
}

// schedNet is the transport.Transport facade over the scheduler's
// internal network. Cluster nodes send through it; a send is a
// loss/latency draw plus an event push on the destination's shard, so
// the whole cluster shares the scheduler's worker pool instead of
// running per-node delivery goroutines.
type schedNet scheduler

// net returns the scheduler's internal transport.
func (s *scheduler) net() transport.Transport { return (*schedNet)(s) }

// Register implements transport.Transport.
func (t *schedNet) Register(id core.ID, h transport.Handler) error {
	(*scheduler)(t).register(id, h)
	return nil
}

// Unregister implements transport.Transport.
func (t *schedNet) Unregister(id core.ID) {
	s := (*scheduler)(t)
	sh := s.shardFor(id)
	sh.mu.Lock()
	if sl := sh.slot(s.slotOf(id)); sl != nil {
		sl.handler = nil
	}
	sh.mu.Unlock()
}

// Send implements transport.Transport: an existence check, a seeded
// loss/latency draw on the destination shard's rng, and an event push —
// all in one critical section on the destination shard. Injected
// faults (partition, chaos windows) draw nothing from that rng: the
// partition test is a pure hash of the endpoints and the chaos verdict
// a pure hash of the send, so a faulted send leaves the transport's
// draw sequence as it was.
func (t *schedNet) Send(from, to core.ID, msg proto.Message) error {
	s := (*scheduler)(t)
	nf := s.faults.Load()
	if nf != nil && nf.Blocks(from, to) {
		s.shardFor(to).counts.dropped.Add(1)
		s.faultPartDrops.Add(1)
		return nil // black-holed at the partition: the sender cannot tell
	}
	sh := s.shardFor(to)
	sh.mu.Lock()
	if sl := sh.slot(s.slotOf(to)); sl == nil || sl.handler == nil {
		sh.mu.Unlock()
		sh.counts.dropped.Add(1)
		return transport.ErrUnknownDestination
	}
	lost := s.cfg.loss > 0 && sh.rng.Float64() < s.cfg.loss
	var drop, delayed, dup bool
	if !lost && nf != nil && nf.Chaos != nil {
		drop, delayed, dup = nf.Decide(from, to, s.seq.Add(1))
	}
	if lost || drop {
		sh.mu.Unlock()
		sh.counts.dropped.Add(1)
		if drop {
			s.faultChaosDrops.Add(1)
		}
		return nil // lost in transit: the sender cannot tell
	}
	var lat time.Duration
	if s.cfg.maxLat > 0 {
		span := s.cfg.maxLat - s.cfg.minLat
		if span > 0 {
			lat = s.cfg.minLat + time.Duration(sh.rng.Int63n(int64(span)))
		} else {
			lat = s.cfg.minLat
		}
	}
	if delayed {
		lat += nf.delay
		s.faultChaosDelays.Add(1)
	}
	ev := event{at: s.now() + int64(lat), from: from, to: to, msg: msg}
	if lat < 0 || ev.at < 0 {
		// A chaos delay may be as long as a Duration holds: saturate
		// rather than wrap the deadline into the past.
		ev.at = math.MaxInt64
	}
	s.pushLocked(sh, ev)
	if dup {
		// Duplication: a second copy of the same message lands at the
		// same deadline (its seq orders it right after the original). A
		// delivered view payload belongs to its receiver, which writes
		// its reply into it or recycles it, so the copy gets its own.
		switch m := msg.(type) {
		case proto.ViewRequest:
			ev.msg = proto.ViewRequest{Entries: slices.Clone(m.Entries)}
		case proto.ViewReply:
			ev.msg = proto.ViewReply{Entries: slices.Clone(m.Entries)}
		}
		s.pushLocked(sh, ev)
		s.faultChaosDups.Add(1)
	}
	sh.mu.Unlock()
	sh.wake()
	if s.tel != nil {
		s.tel.deliveryLat.Observe(lat.Seconds())
	}
	return nil
}

// Close implements transport.Transport. The scheduler's lifecycle is
// owned by the cluster, so Close is a no-op.
func (t *schedNet) Close() error { return nil }
