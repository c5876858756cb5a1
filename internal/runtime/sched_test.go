package runtime

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/transport"
	"github.com/gossipkit/slicing/internal/view"
)

// The wheel pops exactly what a sort of everything pushed by (deadline,
// push order) gives. Pushes interleave with pops and never fall below
// the last popped deadline (as on a running wheel), so the whole pop
// sequence is that sort. Covered: every size from 0 to 9 (the heap's
// first levels, where a node may have one child or none), tied
// deadlines, deadlines saturated at math.MaxInt64, and a 20k-event
// wheel.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := []struct {
		name string
		next func(last int64) int64
	}{
		{"spread", func(last int64) int64 { return last + rng.Int63n(int64(50*time.Millisecond)) }},
		{"ties", func(last int64) int64 { return last + rng.Int63n(3) }},
		{"saturated", func(last int64) int64 {
			if last == math.MaxInt64 || rng.Intn(4) == 0 {
				return math.MaxInt64
			}
			return last + rng.Int63n(3)
		}},
	}
	// run pushes n events, popping one after a push with probability
	// popP, then drains the wheel, and checks the pop sequence.
	run := func(t *testing.T, n int, popP float64, next func(int64) int64) {
		var h eventHeap
		var pushed, popped []event
		var last int64
		pop := func() {
			ev := h.pop()
			last = ev.at
			popped = append(popped, ev)
		}
		for i := 0; i < n; i++ {
			ev := event{at: next(last), seq: uint64(i + 1)}
			h.push(ev)
			pushed = append(pushed, ev)
			if rng.Float64() < popP {
				pop()
			}
		}
		for len(h) > 0 {
			pop()
		}
		slices.SortFunc(pushed, func(a, b event) int {
			if a.before(&b) {
				return -1
			}
			if b.before(&a) {
				return 1
			}
			return 0
		})
		if len(popped) != len(pushed) {
			t.Fatalf("popped %d of %d events", len(popped), len(pushed))
		}
		for i := range pushed {
			if popped[i].at != pushed[i].at || popped[i].seq != pushed[i].seq {
				t.Fatalf("pop %d is (%d, seq %d), want (%d, seq %d)",
					i, popped[i].at, popped[i].seq, pushed[i].at, pushed[i].seq)
			}
		}
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for n := 0; n <= 9; n++ {
				run(t, n, 0, g.next)
				for rep := 0; rep < 20; rep++ {
					run(t, n, 0.3, g.next)
				}
			}
			run(t, 20_000, 0, g.next)
			run(t, 20_000, 0.45, g.next)
		})
	}
}

// BenchmarkEventHeap is one pop and one push at a steady depth of 20k
// pending events, with the live workload's deadline spread: half the
// pushes are ticks rebooked one period (10 ms ± 10 %) ahead, half are
// deliveries 1–5 ms ahead.
func BenchmarkEventHeap(b *testing.B) {
	const depth = 20_000
	const period = int64(10 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	ahead := make([]int64, 4096)
	for i := range ahead {
		if i%2 == 0 {
			ahead[i] = period*9/10 + rng.Int63n(period/5)
		} else {
			ahead[i] = int64(time.Millisecond) + rng.Int63n(int64(4*time.Millisecond))
		}
	}
	var h eventHeap
	for i := 0; i < depth; i++ {
		h.push(event{at: rng.Int63n(period), seq: uint64(i + 1)})
	}
	seq := uint64(depth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		seq++
		h.push(event{at: ev.at + ahead[i%len(ahead)], seq: seq})
	}
}

// A chaos-duplicated message lands at its original's deadline, right
// after it: on the wall clock the two copies must not read the clock
// twice.
func TestSchedNetDuplicateSharesDeadline(t *testing.T) {
	s := newScheduler(schedConfig{clock: realClock{}, shards: 1, seed: 1,
		minLat: time.Millisecond, maxLat: 5 * time.Millisecond})
	s.register(7, func(core.ID, proto.Message) {})
	s.setFaults(&netFaults{Net: fault.Net{Chaos: &fault.Chaos{Dup: 1}}})
	if err := s.net().Send(1, 7, proto.RankUpdate{Attr: 3}); err != nil {
		t.Fatal(err)
	}
	w := s.shardFor(7).wheel
	if len(w) != 2 {
		t.Fatalf("wheel holds %d events, want the message and its duplicate", len(w))
	}
	a, b := w[0], w[1]
	if b.before(&a) {
		a, b = b, a
	}
	if a.at != b.at || b.seq != a.seq+1 {
		t.Errorf("duplicate at (%d, seq %d), original at (%d, seq %d): want the same deadline and the next seq",
			b.at, b.seq, a.at, a.seq)
	}
	if got := s.faultChaosDups.Load(); got != 1 {
		t.Errorf("ChaosDups = %d, want 1", got)
	}
}

// A delivered view payload belongs to its receiver, which writes its
// reply into it or recycles it, so a chaos duplicate of a view message
// must carry the same entries in a backing array of its own.
func TestSchedNetDuplicateCopiesViewPayload(t *testing.T) {
	s := newScheduler(schedConfig{clock: NewVirtualClock(), shards: 1, seed: 1})
	s.register(7, func(core.ID, proto.Message) {})
	s.setFaults(&netFaults{Net: fault.Net{Chaos: &fault.Chaos{Dup: 1}}})
	entries := []view.Entry{{ID: 2, Age: 1, Attr: 4, R: 0.5}, {ID: 3, Age: 2, Attr: 9, R: 0.25}}
	for _, msg := range []proto.Message{proto.ViewRequest{Entries: entries}, proto.ViewReply{Entries: entries}} {
		sh := s.shardFor(7)
		sh.wheel = sh.wheel[:0]
		if err := s.net().Send(1, 7, msg); err != nil {
			t.Fatal(err)
		}
		if len(sh.wheel) != 2 {
			t.Fatalf("%T: wheel holds %d events, want the message and its duplicate", msg, len(sh.wheel))
		}
		a, b := viewPayload(sh.wheel[0].msg), viewPayload(sh.wheel[1].msg)
		if !slices.Equal(a, entries) || !slices.Equal(b, entries) {
			t.Fatalf("%T: deliveries carry %v and %v, want %v twice", msg, a, b, entries)
		}
		if &a[0] == &b[0] {
			t.Errorf("%T: both deliveries share one backing array", msg)
		}
	}
}

// viewPayload returns a view message's entries.
func viewPayload(msg proto.Message) []view.Entry {
	switch m := msg.(type) {
	case proto.ViewRequest:
		return m.Entries
	case proto.ViewReply:
		return m.Entries
	}
	return nil
}

// A chaos delay as long as validation admits saturates the deadline
// instead of wrapping it into the past, where the message would be
// delivered at once.
func TestSchedNetChaosDelaySaturates(t *testing.T) {
	s := newScheduler(schedConfig{clock: NewVirtualClock(), shards: 1, seed: 1,
		minLat: time.Millisecond, maxLat: 5 * time.Millisecond})
	s.register(7, func(core.ID, proto.Message) {})
	s.vclock.advanceTo(int64(time.Hour))
	maxDelay := time.Duration(math.MaxInt64/int64(time.Millisecond)) * time.Millisecond
	s.setFaults(&netFaults{Net: fault.Net{Chaos: &fault.Chaos{Delay: 1}}, delay: maxDelay})
	if err := s.net().Send(1, 7, proto.RankUpdate{Attr: 3}); err != nil {
		t.Fatal(err)
	}
	w := s.shardFor(7).wheel
	if len(w) != 1 {
		t.Fatalf("wheel holds %d events, want 1", len(w))
	}
	if now := s.now(); w[0].at < now {
		t.Errorf("delayed message due at %d, before now %d: the deadline wrapped", w[0].at, now)
	}
}

// newTestSched builds a driven scheduler with its workers running.
func newTestSched(t *testing.T, cfg schedConfig) *scheduler {
	t.Helper()
	if cfg.clock == nil {
		cfg.clock = NewVirtualClock()
	}
	s := newScheduler(cfg)
	s.start()
	t.Cleanup(s.halt)
	return s
}

// recorder counts deliveries thread-safely.
type recorder struct {
	mu    sync.Mutex
	n     int
	froms []core.ID
}

func (r *recorder) handler(from core.ID, _ proto.Message) {
	r.mu.Lock()
	r.n++
	r.froms = append(r.froms, from)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// A send to an unregistered id fails and counts as dropped; a registered
// one delivers within the step that covers its latency.
func TestSchedNetDelivery(t *testing.T) {
	s := newTestSched(t, schedConfig{shards: 4, seed: 1, quantum: time.Millisecond})
	var rx recorder
	net := s.net()
	if err := net.Register(7, rx.handler); err != nil {
		t.Fatal(err)
	}
	if err := net.Send(1, 99, proto.RankUpdate{Attr: 3}); !errors.Is(err, transport.ErrUnknownDestination) {
		t.Fatalf("Send to unknown = %v, want ErrUnknownDestination", err)
	}
	if err := net.Send(1, 7, proto.RankUpdate{Attr: 3}); err != nil {
		t.Fatal(err)
	}
	s.step(time.Millisecond)
	if got := rx.count(); got != 1 {
		t.Fatalf("delivered %d messages, want 1", got)
	}
	counts := s.counts()
	if counts.RankUpdates != 1 || counts.Dropped != 1 {
		t.Fatalf("counts = %+v, want 1 rank update and 1 drop", counts)
	}
}

// A slot's footprint is recorded once, when its node takes the slot, so
// the view block it names must never move: after 20 gossip steps with
// joins and kills between them, every live slot still names its view's
// current entry array, and every killed node's slot is empty.
func TestLiveViewStorageStable(t *testing.T) {
	for _, tc := range []struct {
		name  string
		proto proto.Kind
	}{
		{"ordering-cyclon", proto.Ordering},
		{"ranking-cyclon", proto.Ranking},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := drivenCluster(t, ClusterConfig{
				N: 60, Partition: testPartition(t, 4), ViewSize: 8, Protocol: tc.proto,
				MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond,
				AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 3, Shards: 3,
			})
			rng := rand.New(rand.NewSource(5))
			var killed []core.ID
			for step := 0; step < 20; step++ {
				if _, err := c.Join(core.Attr(rng.Float64() * 1000)); err != nil {
					t.Fatal(err)
				}
				nodes := c.Nodes()
				id := nodes[rng.Intn(len(nodes))].ID()
				c.Kill(id)
				killed = append(killed, id)
				if err := c.Advance(c.cfg.Period); err != nil {
					t.Fatal(err)
				}
			}
			s := c.sched
			for _, n := range c.Nodes() {
				sl := s.shardFor(n.ID()).slot(s.slotOf(n.ID()))
				if sl == nil || sl.node() != n {
					t.Fatalf("node %d is not in its slot", n.ID())
				}
				ents := n.mem.View().Block()
				p, bytes := unsafe.Pointer(unsafe.SliceData(ents)), uintptr(len(ents))*unsafe.Sizeof(view.Entry{})
				if got := sl.fp.p[fpEntries]; got != p {
					t.Errorf("node %d: footprint entry span starts at %p, the view's block at %p", n.ID(), got, p)
				}
				if got := uintptr(sl.fp.units[fpEntries]) * 64; got < bytes || got >= bytes+64 {
					t.Errorf("node %d: footprint entry span covers %d bytes, the view's block is %d", n.ID(), got, bytes)
				}
			}
			for _, id := range killed {
				sl := s.shardFor(id).slot(s.slotOf(id))
				if sl != nil && (sl.handler != nil || sl.fp != (footprint{})) {
					t.Errorf("killed node %d's slot still holds pointers", id)
				}
			}
		})
	}
}

// A send to a slot that holds no handler fails, counts as dropped and
// leaves the slot slice as it was: whether the ID was never registered,
// was killed, or lies past the end of the slice.
func TestSchedNetUnknownDestination(t *testing.T) {
	s := newTestSched(t, schedConfig{shards: 2, seed: 1, quantum: time.Millisecond})
	var rx recorder
	for _, id := range []core.ID{2, 9, 11} {
		s.register(id, rx.handler)
	}
	s.removeNode(9)
	slotsLen := func() (n int) {
		for _, sh := range s.shards {
			sh.mu.Lock()
			n += len(sh.slots)
			sh.mu.Unlock()
		}
		return n
	}
	before := slotsLen()
	for i, to := range []core.ID{4, 9, 10_001} { // never registered, killed, past the end
		if err := s.net().Send(1, to, proto.RankUpdate{Attr: 3}); !errors.Is(err, transport.ErrUnknownDestination) {
			t.Errorf("Send to %d = %v, want ErrUnknownDestination", to, err)
		}
		if got := s.counts().Dropped; got != uint64(i+1) {
			t.Errorf("after the send to %d, Dropped = %d, want %d", to, got, i+1)
		}
	}
	if after := slotsLen(); after != before {
		t.Errorf("sends to unknown IDs grew the slots from %d to %d", before, after)
	}
	s.step(time.Millisecond)
	if got := rx.count(); got != 0 {
		t.Errorf("%d messages delivered, want none", got)
	}
}

// Latency injection lands deliveries on the virtual timeline: a message
// with latency in [4ms,4ms] is not visible after 2ms but is after 6ms.
func TestSchedNetLatencyVirtualTimeline(t *testing.T) {
	s := newTestSched(t, schedConfig{
		shards: 2, seed: 9, quantum: time.Millisecond / 2,
		minLat: 4 * time.Millisecond, maxLat: 4 * time.Millisecond,
	})
	var rx recorder
	if err := s.net().Register(3, rx.handler); err != nil {
		t.Fatal(err)
	}
	if err := s.net().Send(1, 3, proto.SwapReply{R: 0.5}); err != nil {
		t.Fatal(err)
	}
	s.step(2 * time.Millisecond)
	if got := rx.count(); got != 0 {
		t.Fatalf("message delivered after 2ms despite 4ms latency (got %d)", got)
	}
	s.step(4 * time.Millisecond)
	if got := rx.count(); got != 1 {
		t.Fatalf("message not delivered after 6ms (got %d)", got)
	}
}

// Seeded loss is deterministic: two schedulers with the same seed drop
// the same sends.
func TestSchedNetSeededLossDeterministic(t *testing.T) {
	drops := func() []int {
		s := newTestSched(t, schedConfig{shards: 1, seed: 77, quantum: time.Millisecond, loss: 0.4})
		var rx recorder
		if err := s.net().Register(1, rx.handler); err != nil {
			t.Fatal(err)
		}
		var lost []int
		for i := 0; i < 100; i++ {
			before := s.counts().Dropped
			if err := s.net().Send(2, 1, proto.RankUpdate{Attr: core.Attr(i)}); err != nil {
				t.Fatal(err)
			}
			if s.counts().Dropped > before {
				lost = append(lost, i)
			}
		}
		s.step(time.Millisecond)
		if got := rx.count(); got != 100-len(lost) {
			t.Fatalf("delivered %d, want %d", got, 100-len(lost))
		}
		return lost
	}
	a, b := drops(), drops()
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("loss 0.4 dropped %d of 100 — injection broken", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed dropped %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed dropped different sends: %v vs %v", a, b)
		}
	}
}

// Ticks rebook themselves every period: strictly periodic nodes produce
// about one view request per node per period (a Cyclon node skips a
// tick only when its view is momentarily empty).
func TestSchedulerTickCadence(t *testing.T) {
	clk := NewVirtualClock()
	const n, periods = 8, 10
	c, err := NewCluster(ClusterConfig{
		N: n, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ordering, Period: testPeriod, JitterFrac: JitterNone,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100}, Seed: 3, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(periods * testPeriod); err != nil {
		t.Fatal(err)
	}
	counts := c.MessageCounts()
	// First ticks land at a random phase inside the first period, then
	// every period exactly: ≈ n·periods requests, give or take boundary
	// effects and empty-view skips — but never runaway (a ticker bug
	// would double-book) and never stalled.
	want := uint64(n * periods)
	if counts.ViewRequests < want*3/4 || counts.ViewRequests > want+n {
		t.Fatalf("ViewRequests = %d over %d periods of %d strictly periodic nodes, want ≈%d",
			counts.ViewRequests, periods, n, want)
	}
}

// driven1Result is what a single-shard driven run leaves behind: the
// final SDM (as bits), the traffic, and the ordering counters summed
// over every node.
type driven1Result struct {
	sdmBits uint64
	counts  proto.MessageCounts
	stats   ordering.Stats
}

// A single-shard driven cluster is deterministic: same seed, same
// trajectory, same traffic. The ordering-over-Cyclon config is also
// pinned to recorded values, so a change that reorders the timer wheel
// or alters a merge outcome fails here instead of only moving a
// benchmark fingerprint.
func TestDrivenSingleShardDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
		want *driven1Result
	}{
		{name: "ranking/loss", cfg: ClusterConfig{
			N: 40, Partition: testPartition(t, 4), ViewSize: 8,
			Protocol: proto.Ranking, Period: testPeriod,
			AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 123, Loss: 0.1,
		}},
		{name: "ordering/cyclon/latency+loss", cfg: ClusterConfig{
			N: 60, Partition: testPartition(t, 4), ViewSize: 8,
			Protocol: proto.Ordering, Period: 10 * time.Millisecond,
			MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond,
			AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 123, Loss: 0.02,
		}, want: &driven1Result{
			sdmBits: math.Float64bits(2),
			counts: proto.MessageCounts{
				ViewRequests: 2326, ViewReplies: 2264,
				SwapRequests: 458, SwapReplies: 447, Dropped: 102,
			},
			stats: ordering.Stats{
				ReqSent: 464, ReqReceived: 458, SwapFailedAtReceiver: 259,
				SwapFailedAtInitiator: 380, Swapped: 266,
			},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() driven1Result {
				cfg := tc.cfg
				cfg.Clock, cfg.Shards = NewVirtualClock(), 1
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Stop()
				if err := c.Start(); err != nil {
					t.Fatal(err)
				}
				if err := c.Advance(40 * cfg.Period); err != nil {
					t.Fatal(err)
				}
				res := driven1Result{sdmBits: math.Float64bits(c.SDM()), counts: c.MessageCounts()}
				for _, n := range c.Nodes() {
					if st, ok := n.OrderingStats(); ok {
						res.stats.ReqSent += st.ReqSent
						res.stats.ReqReceived += st.ReqReceived
						res.stats.SwapFailedAtReceiver += st.SwapFailedAtReceiver
						res.stats.SwapFailedAtInitiator += st.SwapFailedAtInitiator
						res.stats.SwapAbandonedAtSender += st.SwapAbandonedAtSender
						res.stats.Swapped += st.Swapped
					}
				}
				return res
			}
			r1, r2 := run(), run()
			if r1 != r2 {
				t.Fatalf("same seed, different runs:\n%+v\n%+v", r1, r2)
			}
			if tc.want != nil && r1 != *tc.want {
				t.Errorf("trajectory moved:\n got %#v\nwant %#v", r1, *tc.want)
			}
		})
	}
}

// Killed nodes stop ticking and their queued deliveries drop.
func TestSchedulerRemoveNodeStopsTraffic(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 8, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100}, Seed: 15,
	})
	if err := c.Advance(5 * testPeriod); err != nil {
		t.Fatal(err)
	}
	// The victim must be an ID some survivor still holds in its view:
	// which IDs those are depends on the shard count (the live
	// trajectory is not yet shard-invariant), and a node nobody points
	// at is never sent to, so killing it correctly yields zero drops.
	var victim core.ID
	for _, n := range c.Nodes() {
		if es := n.ViewEntries(); len(es) > 0 {
			victim = es[0].ID
			break
		}
	}
	if !c.Kill(victim) {
		t.Fatalf("Kill(%d) found no node", victim)
	}
	if c.Kill(victim) {
		t.Fatalf("Kill(%d) succeeded twice", victim)
	}
	before := c.MessageCounts()
	if err := c.Advance(20 * testPeriod); err != nil {
		t.Fatal(err)
	}
	after := c.MessageCounts()
	// Survivors keep gossiping; sends to the dead node count as drops.
	if after.Total() <= before.Total() {
		t.Error("no traffic after a kill")
	}
	if after.Dropped <= before.Dropped {
		t.Error("no drops after a kill — dead node still reachable?")
	}
}
