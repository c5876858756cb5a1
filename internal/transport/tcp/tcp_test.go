package tcp

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/transport"
	"github.com/gossipkit/slicing/internal/view"
)

type collector struct {
	mu   sync.Mutex
	msgs []proto.Message
	from []core.ID
}

func (c *collector) handler() transport.Handler {
	return func(from core.ID, msg proto.Message) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.msgs = append(c.msgs, msg)
		c.from = append(c.from, from)
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.count() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages, got %d", n, c.count())
}

// pair starts two transports wired to each other via loopback.
func pair(t *testing.T) (a, b *Transport) {
	t.Helper()
	a, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err = New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	return a, b
}

func TestTCPCrossProcessDelivery(t *testing.T) {
	a, b := pair(t)
	var rxB collector
	if err := b.Register(2, rxB.handler()); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(1, func(core.ID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	msg := proto.ViewRequest{Entries: []view.Entry{{ID: 1, Age: 3, Attr: 9.5, R: 0.25}}}
	if err := a.Send(1, 2, msg); err != nil {
		t.Fatal(err)
	}
	rxB.waitFor(t, 1, 2*time.Second)
	rxB.mu.Lock()
	defer rxB.mu.Unlock()
	got, ok := rxB.msgs[0].(proto.ViewRequest)
	if !ok {
		t.Fatalf("received %T, want ViewRequest", rxB.msgs[0])
	}
	if len(got.Entries) != 1 || got.Entries[0] != msg.Entries[0] {
		t.Errorf("entries = %+v, want %+v", got.Entries, msg.Entries)
	}
	if rxB.from[0] != 1 {
		t.Errorf("from = %v, want 1", rxB.from[0])
	}
}

func TestTCPBidirectionalTraffic(t *testing.T) {
	a, b := pair(t)
	var rxA, rxB collector
	if err := a.Register(1, rxA.handler()); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(2, rxB.handler()); err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(1, 2, proto.RankUpdate{Attr: core.Attr(i)}); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(2, 1, proto.SwapReply{R: float64(i) / n}); err != nil {
			t.Fatal(err)
		}
	}
	rxA.waitFor(t, n, 2*time.Second)
	rxB.waitFor(t, n, 2*time.Second)
}

func TestTCPLocalLoopbackDispatch(t *testing.T) {
	tr, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var rx collector
	if err := tr.Register(5, rx.handler()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(6, func(core.ID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	// 5 and 6 share the transport: no socket involved.
	if err := tr.Send(6, 5, proto.RankUpdate{Attr: 1}); err != nil {
		t.Fatal(err)
	}
	rx.waitFor(t, 1, time.Second)
}

func TestTCPUnknownDestination(t *testing.T) {
	tr, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(1, 42, proto.SwapReply{}); !errors.Is(err, transport.ErrUnknownDestination) {
		t.Errorf("Send error = %v, want ErrUnknownDestination", err)
	}
}

func TestTCPDuplicateRegister(t *testing.T) {
	tr, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Register(1, func(core.ID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(1, func(core.ID, proto.Message) {}); !errors.Is(err, transport.ErrDuplicateNode) {
		t.Errorf("Register error = %v, want ErrDuplicateNode", err)
	}
}

func TestTCPSendToDeadPeerFails(t *testing.T) {
	a, err := New(Options{ListenAddr: "127.0.0.1:0", DialTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// An address nobody listens on (we bind and close to reserve-and-release).
	b, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	dead := b.Addr()
	b.Close()
	a.SetPeer(9, dead)
	if err := a.Send(1, 9, proto.SwapReply{}); err == nil {
		t.Error("Send to dead peer succeeded")
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	var rx1 collector
	if err := b1.Register(2, rx1.handler()); err != nil {
		t.Fatal(err)
	}
	a.SetPeer(2, addr)
	if err := a.Send(1, 2, proto.SwapReply{R: 0.1}); err != nil {
		t.Fatal(err)
	}
	rx1.waitFor(t, 1, 2*time.Second)
	b1.Close()

	// Restart the peer on the same address.
	var b2 *Transport
	deadline := time.Now().Add(2 * time.Second)
	for {
		b2, err = New(Options{ListenAddr: addr})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer b2.Close()
	var rx2 collector
	if err := b2.Register(2, rx2.handler()); err != nil {
		t.Fatal(err)
	}
	// First send may fail on the stale cached connection; the gossip
	// layer simply retries next period. Eventually traffic flows again.
	deadline = time.Now().Add(3 * time.Second)
	for rx2.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after peer restart")
		}
		a.Send(1, 2, proto.SwapReply{R: 0.2})
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTCPClosedOperations(t *testing.T) {
	tr, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(1, func(core.ID, proto.Message) {}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Register after Close error = %v, want ErrClosed", err)
	}
	if err := tr.Send(1, 2, proto.SwapReply{}); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Send after Close error = %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("double Close error = %v", err)
	}
}

func TestTCPLargeViewExchange(t *testing.T) {
	a, b := pair(t)
	var rx collector
	if err := b.Register(2, rx.handler()); err != nil {
		t.Fatal(err)
	}
	entries := make([]view.Entry, 1000)
	for i := range entries {
		entries[i] = view.Entry{ID: core.ID(i), Age: uint32(i), Attr: core.Attr(i), R: float64(i) / 1000}
	}
	if err := a.Send(1, 2, proto.ViewReply{Entries: entries}); err != nil {
		t.Fatal(err)
	}
	rx.waitFor(t, 1, 2*time.Second)
	rx.mu.Lock()
	defer rx.mu.Unlock()
	rep := rx.msgs[0].(proto.ViewReply)
	if len(rep.Entries) != 1000 {
		t.Errorf("received %d entries, want 1000", len(rep.Entries))
	}
}

// Frames addressed to an unregistered node are dropped silently while
// the connection (and other local nodes) keep working; re-registering
// the id restores delivery. This is the churn-departure path: a node
// leaves, its traffic evaporates, nobody else notices.
func TestTCPUnregisterDropsFramesKeepsStream(t *testing.T) {
	a, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var gone, stays, back collector
	if err := b.Register(2, gone.handler()); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(3, stays.handler()); err != nil {
		t.Fatal(err)
	}
	a.SetPeer(2, b.Addr())
	a.SetPeer(3, b.Addr())

	if err := a.Send(1, 2, proto.SwapReply{R: 0.1}); err != nil {
		t.Fatal(err)
	}
	gone.waitFor(t, 1, 2*time.Second)

	// Node 2 departs. Its frames vanish without erroring the sender or
	// cutting the shared stream.
	b.Unregister(2)
	for i := 0; i < 5; i++ {
		if err := a.Send(1, 2, proto.SwapReply{R: 0.2}); err != nil {
			t.Fatalf("send to departed node errored the sender: %v", err)
		}
	}
	// The same connection still serves node 3.
	if err := a.Send(1, 3, proto.RankUpdate{Attr: 9}); err != nil {
		t.Fatal(err)
	}
	stays.waitFor(t, 1, 2*time.Second)
	if got := gone.count(); got != 1 {
		t.Errorf("departed node received %d messages, want the 1 pre-departure delivery", got)
	}

	// A node reusing the id (a rejoin) sees fresh traffic again.
	if err := b.Register(2, back.handler()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 2, proto.SwapReply{R: 0.3}); err != nil {
		t.Fatal(err)
	}
	back.waitFor(t, 1, 2*time.Second)
}

// A broken outbound connection is re-dialed on a later send: the first
// write after the peer's listener dies may drop (gossip tolerates
// that), but the transport must recover on its own without a restart.
func TestTCPRedialAfterConnectionDrop(t *testing.T) {
	a, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()
	var rx1 collector
	if err := b1.Register(2, rx1.handler()); err != nil {
		t.Fatal(err)
	}
	a.SetPeer(2, addr)
	if err := a.Send(1, 2, proto.SwapReply{R: 0.1}); err != nil {
		t.Fatal(err)
	}
	rx1.waitFor(t, 1, 2*time.Second)
	b1.Close() // kills the accepted conn under a's cached dial

	// With the peer gone, sends fail (either on the stale cached
	// connection's write or on the re-dial) — but they must not wedge
	// the transport.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := a.Send(1, 2, proto.SwapReply{R: 0.2}); err != nil {
			break // stale connection detected and evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("sends to a dead peer kept succeeding silently")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Peer comes back on the same address: the next dial reconnects and
	// traffic flows with no operator intervention.
	var b2 *Transport
	deadline = time.Now().Add(2 * time.Second)
	for {
		b2, err = New(Options{ListenAddr: addr})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer b2.Close()
	var rx2 collector
	if err := b2.Register(2, rx2.handler()); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for rx2.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery after redial")
		}
		a.Send(1, 2, proto.SwapReply{R: 0.3})
		time.Sleep(20 * time.Millisecond)
	}
}

// A frame header carries 8-byte IDs; one past core.MaxID is rejected,
// never truncated onto another node. decodeFrame fails on it, and on the
// wire the frame is skipped: a frame addressed to 2³²+2 (node 2 after
// truncation) or sent from 2³²+1 reaches nobody, while the valid frame
// behind it on the same stream is delivered.
func TestTCPFrameIDRange(t *testing.T) {
	frame, err := encodeFrame(core.MaxID, 2, proto.SwapReply{R: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if from, to, _, err := decodeFrame(frame[4:]); err != nil || from != core.MaxID || to != 2 {
		t.Fatalf("decodeFrame = (%v, %v, %v), want (%v, n2, nil)", from, to, err, core.MaxID)
	}
	for _, field := range []int{4, 12} { // from, to
		bad := append([]byte(nil), frame...)
		binary.BigEndian.PutUint64(bad[field:], 1<<32+2)
		if _, _, _, err := decodeFrame(bad[4:]); !errors.Is(err, core.ErrIDRange) {
			t.Errorf("header word at %d = 2^32+2: decodeFrame error = %v, want ErrIDRange", field, err)
		}
	}

	b, err := New(Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got collector
	if err := b.Register(2, got.handler()); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(from, to uint64, r float64) {
		f, err := encodeFrame(1, 2, proto.SwapReply{R: r})
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(f[4:], from)
		binary.BigEndian.PutUint64(f[12:], to)
		if _, err := c.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 1<<32+2, 0.1)
	send(1<<32+1, 2, 0.2)
	send(1, 2, 0.3)
	got.waitFor(t, 1, 2*time.Second)
	time.Sleep(20 * time.Millisecond)
	got.mu.Lock()
	defer got.mu.Unlock()
	if len(got.msgs) != 1 || got.msgs[0] != (proto.SwapReply{R: 0.3}) || got.from[0] != 1 {
		t.Errorf("node 2 received %v from %v, want only the valid frame (R=0.3 from n1)", got.msgs, got.from)
	}
}
