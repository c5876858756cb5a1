package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
)

// collector accumulates received messages thread-safely.
type collector struct {
	mu   sync.Mutex
	msgs []proto.Message
	from []core.ID
}

func (c *collector) handler() Handler {
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

func TestInMemDelivery(t *testing.T) {
	tr := NewInMem(InMemOptions{})
	defer tr.Close()
	var rx collector
	if err := tr.Register(1, rx.handler()); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(2, func(core.ID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(2, 1, proto.RankUpdate{Attr: 7}); err != nil {
		t.Fatal(err)
	}
	rx.waitFor(t, 1, time.Second)
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if rx.from[0] != 2 {
		t.Errorf("from = %v, want 2", rx.from[0])
	}
	if upd, ok := rx.msgs[0].(proto.RankUpdate); !ok || upd.Attr != 7 {
		t.Errorf("msg = %+v", rx.msgs[0])
	}
}

func TestInMemUnknownDestination(t *testing.T) {
	tr := NewInMem(InMemOptions{})
	defer tr.Close()
	if err := tr.Send(1, 99, proto.SwapReply{}); !errors.Is(err, ErrUnknownDestination) {
		t.Errorf("Send error = %v, want ErrUnknownDestination", err)
	}
}

func TestInMemDuplicateRegister(t *testing.T) {
	tr := NewInMem(InMemOptions{})
	defer tr.Close()
	if err := tr.Register(1, func(core.ID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(1, func(core.ID, proto.Message) {}); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("second Register error = %v, want ErrDuplicateNode", err)
	}
}

func TestInMemUnregisterStopsDelivery(t *testing.T) {
	tr := NewInMem(InMemOptions{})
	defer tr.Close()
	var rx collector
	if err := tr.Register(1, rx.handler()); err != nil {
		t.Fatal(err)
	}
	tr.Unregister(1)
	if err := tr.Send(2, 1, proto.SwapReply{}); !errors.Is(err, ErrUnknownDestination) {
		t.Errorf("Send after Unregister error = %v, want ErrUnknownDestination", err)
	}
}

func TestInMemClosedOperations(t *testing.T) {
	tr := NewInMem(InMemOptions{})
	if err := tr.Register(1, func(core.ID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, 1, proto.SwapReply{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close error = %v, want ErrClosed", err)
	}
	if err := tr.Register(2, func(core.ID, proto.Message) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close error = %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("double Close error = %v, want nil", err)
	}
}

func TestInMemLossInjection(t *testing.T) {
	tr := NewInMem(InMemOptions{LossRate: 1, Seed: 1})
	defer tr.Close()
	var rx collector
	if err := tr.Register(1, rx.handler()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Send(2, 1, proto.SwapReply{}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if rx.count() != 0 {
		t.Errorf("LossRate=1 delivered %d messages", rx.count())
	}
	if _, dropped := tr.Stats(); dropped != 50 {
		t.Errorf("dropped = %d, want 50", dropped)
	}
}

func TestInMemPartialLoss(t *testing.T) {
	tr := NewInMem(InMemOptions{LossRate: 0.5, Seed: 42})
	defer tr.Close()
	var rx collector
	if err := tr.Register(1, rx.handler()); err != nil {
		t.Fatal(err)
	}
	const total = 400
	for i := 0; i < total; i++ {
		if err := tr.Send(2, 1, proto.SwapReply{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		d, dr := tr.Stats()
		if d+dr == total {
			break
		}
		time.Sleep(time.Millisecond)
	}
	delivered, dropped := tr.Stats()
	if delivered+dropped != total {
		t.Fatalf("accounted %d+%d messages, want %d", delivered, dropped, total)
	}
	if delivered < total/4 || delivered > 3*total/4 {
		t.Errorf("delivered %d of %d at 50%% loss", delivered, total)
	}
}

func TestInMemLatency(t *testing.T) {
	tr := NewInMem(InMemOptions{MinLatency: 30 * time.Millisecond, MaxLatency: 40 * time.Millisecond})
	defer tr.Close()
	var rx collector
	if err := tr.Register(1, rx.handler()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.Send(2, 1, proto.SwapReply{}); err != nil {
		t.Fatal(err)
	}
	rx.waitFor(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("message arrived after %v, want ≥ ~30ms", elapsed)
	}
}

func TestInMemCloseWaitsForLatentMessages(t *testing.T) {
	tr := NewInMem(InMemOptions{MinLatency: 10 * time.Millisecond, MaxLatency: 15 * time.Millisecond})
	if err := tr.Register(1, func(core.ID, proto.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tr.Send(2, 1, proto.SwapReply{}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		tr.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on latent messages")
	}
}

func TestInMemConcurrentSenders(t *testing.T) {
	tr := NewInMem(InMemOptions{QueueSize: 10000})
	defer tr.Close()
	var rx collector
	if err := tr.Register(1, rx.handler()); err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := tr.Send(core.ID(s+2), 1, proto.RankUpdate{Attr: core.Attr(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	rx.waitFor(t, senders*each, 2*time.Second)
}

func TestInMemQueueOverflowDropsNotBlocks(t *testing.T) {
	block := make(chan struct{})
	tr := NewInMem(InMemOptions{QueueSize: 1})
	defer tr.Close()
	if err := tr.Register(1, func(core.ID, proto.Message) { <-block }); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			tr.Send(2, 1, proto.SwapReply{})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Send blocked on a full queue")
	}
	close(block)
}

// Seeded loss is deterministic: two transports with the same seed drop
// exactly the same sends, so lossy experiments reproduce bit-for-bit at
// the transport layer.
func TestInMemSeededLossPatternDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		tr := NewInMem(InMemOptions{LossRate: 0.5, Seed: seed})
		defer tr.Close()
		if err := tr.Register(1, func(core.ID, proto.Message) {}); err != nil {
			t.Fatal(err)
		}
		var dropped []bool
		for i := 0; i < 200; i++ {
			_, before := tr.Stats()
			if err := tr.Send(2, 1, proto.SwapReply{R: float64(i)}); err != nil {
				t.Fatal(err)
			}
			_, after := tr.Stats()
			dropped = append(dropped, after > before)
		}
		return dropped
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("send %d: same seed, different loss outcome", i)
		}
	}
	lost := 0
	for _, d := range a {
		if d {
			lost++
		}
	}
	if lost < 50 || lost > 150 {
		t.Errorf("lost %d of 200 at 50%% loss", lost)
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical 200-send loss pattern")
	}
}

// Combined latency+loss injection under a fixed seed delivers a
// deterministic subset (loss and latency draw from the same seeded rng
// in send order), and every surviving message respects the latency
// floor. Close drops a delivery whose latency has not elapsed, so the
// test waits for every surviving message to arrive before closing.
func TestInMemSeededLatencyLossDeterministic(t *testing.T) {
	const total = 100
	deliveredCount := func(seed int64) uint64 {
		tr := NewInMem(InMemOptions{
			MinLatency: 2 * time.Millisecond,
			MaxLatency: 10 * time.Millisecond,
			LossRate:   0.3,
			Seed:       seed,
		})
		arrivals := make(chan time.Duration, total)
		start := time.Now()
		err := tr.Register(1, func(core.ID, proto.Message) {
			arrivals <- time.Since(start)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < total; i++ {
			if err := tr.Send(2, 1, proto.SwapReply{R: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Loss is decided inside Send, so every message not yet counted
		// as dropped is on its way.
		_, lost := tr.Stats()
		survivors := total - int(lost)
		if survivors == 0 {
			t.Fatal("every message was lost: nothing checks the latency floor")
		}
		timeout := time.After(10 * time.Second)
		for i := 0; i < survivors; i++ {
			select {
			case a := <-arrivals:
				if a < 2*time.Millisecond {
					t.Errorf("message arrived after %v, before the 2ms latency floor", a)
				}
			case <-timeout:
				t.Fatalf("%d of %d surviving messages arrived within 10s", i, survivors)
			}
		}
		tr.Close()
		delivered, dropped := tr.Stats()
		if delivered != uint64(survivors) || dropped != lost {
			t.Fatalf("stats say %d delivered and %d dropped after close, want %d and %d",
				delivered, dropped, survivors, lost)
		}
		if n := len(arrivals); n != 0 {
			t.Fatalf("handler saw %d messages beyond the %d survivors", n, survivors)
		}
		return delivered
	}
	if a, b := deliveredCount(21), deliveredCount(21); a != b {
		t.Errorf("same seed delivered %d vs %d messages", a, b)
	}
}
