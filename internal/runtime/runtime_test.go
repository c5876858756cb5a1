package runtime

import (
	"errors"
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/transport"
	"github.com/gossipkit/slicing/internal/transport/tcp"
	"github.com/gossipkit/slicing/internal/view"
)

func testPartition(t *testing.T, k int) core.Partition {
	t.Helper()
	p, err := core.Equal(k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// loopbackTransport is a TCP transport on an ephemeral loopback port,
// closed when the test ends: a vehicle for standalone-node tests that
// exchange no messages.
func loopbackTransport(t *testing.T) *tcp.Transport {
	t.Helper()
	tr, err := tcp.New(tcp.Options{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// registerRecorder is a Transport that records Register calls and
// delivers nothing.
type registerRecorder struct{ registered []core.ID }

func (r *registerRecorder) Register(id core.ID, _ transport.Handler) error {
	r.registered = append(r.registered, id)
	return nil
}
func (*registerRecorder) Unregister(core.ID)                         {}
func (*registerRecorder) Send(core.ID, core.ID, proto.Message) error { return nil }
func (*registerRecorder) Close() error                               { return nil }

// testPeriod is the virtual gossip period of the driven tests. Its
// absolute value is irrelevant (no wall time passes); it only scales the
// virtual timeline.
const testPeriod = 2 * time.Millisecond

// drivenCluster builds a cluster on a virtual clock and starts it. The
// returned cluster advances only through Advance: the tests below are
// deterministic in structure and never depend on the wall clock.
func drivenCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = NewVirtualClock()
	}
	if cfg.Period == 0 {
		cfg.Period = testPeriod
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

// advanceUntil advances the cluster one period at a time until cond
// holds, failing after maxCycles periods.
func advanceUntil(t *testing.T, c *Cluster, maxCycles int, cond func() bool, desc string) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if cond() {
			return
		}
		if err := c.Advance(c.cfg.Period); err != nil {
			t.Fatal(err)
		}
	}
	if !cond() {
		t.Fatalf("%s not reached after %d cycles", desc, maxCycles)
	}
}

func TestNewNodeValidation(t *testing.T) {
	tr := loopbackTransport(t)
	part := testPartition(t, 4)
	base := NodeConfig{
		ID: 1, Attr: 5, Partition: part, ViewSize: 4,
		Protocol: proto.Ranking, Estimator: ranking.NewCounter(),
		Period: time.Millisecond, Transport: tr,
	}
	tests := []struct {
		name    string
		mutate  func(*NodeConfig)
		wantErr error
	}{
		{"nil transport", func(c *NodeConfig) { c.Transport = nil }, ErrNoTransport},
		{"zero period", func(c *NodeConfig) { c.Period = 0 }, ErrBadPeriod},
		{"bad protocol", func(c *NodeConfig) { c.Protocol = 0 }, ErrBadProtocol},
		{"ranking without estimator", func(c *NodeConfig) { c.Estimator = nil }, ErrNoEstimator},
		{"zero view", func(c *NodeConfig) { c.ViewSize = 0 }, view.ErrCapacity},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewNode(cfg); !errors.Is(err, tt.wantErr) {
				t.Errorf("NewNode error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNodeStartStopLifecycle(t *testing.T) {
	tr := loopbackTransport(t)
	n, err := NewNode(NodeConfig{
		ID: 1, Attr: 5, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ranking, Estimator: ranking.NewCounter(),
		Period: time.Millisecond, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); !errors.Is(err, ErrStarted) {
		t.Errorf("second Start error = %v, want ErrStarted", err)
	}
	n.Stop()
	n.Stop() // idempotent
	if err := n.Start(); !errors.Is(err, ErrStopped) {
		t.Errorf("Start after Stop = %v, want ErrStopped", err)
	}
}

func TestStopWithoutStart(t *testing.T) {
	tr := &registerRecorder{}
	n, err := NewNode(NodeConfig{
		ID: 1, Attr: 5, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ordering, Period: time.Millisecond, Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Stop() // must not hang or panic
	n.Stop()
	// A node stopped before it started stays stopped: Start says so and
	// neither registers it nor launches its active thread.
	if err := n.Start(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Start after Stop = %v, want ErrStopped", err)
	}
	if len(tr.registered) != 0 {
		t.Errorf("Start after Stop registered %v", tr.registered)
	}
	if n.done != nil {
		t.Error("Start after Stop launched the active thread")
	}
}

func TestClusterValidation(t *testing.T) {
	part := testPartition(t, 2)
	base := ClusterConfig{
		N: 8, Partition: part, ViewSize: 4, Protocol: proto.Ranking,
		Period: time.Millisecond, AttrDist: dist.Uniform{Lo: 0, Hi: 1},
	}
	tests := []struct {
		name    string
		mutate  func(*ClusterConfig)
		wantErr error
	}{
		{"too small", func(c *ClusterConfig) { c.N = 1 }, ErrClusterSize},
		{"no dist", func(c *ClusterConfig) { c.AttrDist = nil }, ErrNoDist},
		{"zero period", func(c *ClusterConfig) { c.Period = 0 }, ErrBadPeriod},
		{"loss too high", func(c *ClusterConfig) { c.Loss = 1 }, ErrLossRange},
		{"negative loss", func(c *ClusterConfig) { c.Loss = -0.1 }, ErrLossRange},
		{"inverted latency", func(c *ClusterConfig) {
			c.MinLatency = time.Millisecond
			c.MaxLatency = time.Microsecond
		}, ErrLatencyRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewCluster(cfg); !errors.Is(err, tt.wantErr) {
				t.Errorf("NewCluster error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestAdvanceNeedsVirtualClock(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		N: 4, Partition: testPartition(t, 2), ViewSize: 3,
		Protocol: proto.Ranking, Period: time.Millisecond,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.Advance(time.Millisecond); !errors.Is(err, ErrNotDriven) {
		t.Errorf("Advance on wall-clock cluster = %v, want ErrNotDriven", err)
	}
}

// A live ordering cluster over the scheduler-routed network must sort
// itself: SDM decreases to the random-value floor. Driven by virtual
// time, so the test is sleep-free.
func TestLiveOrderingClusterConverges(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 32, Partition: testPartition(t, 4), ViewSize: 8,
		Protocol: proto.Ordering, Policy: ordering.SelectMaxGain,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 7,
	})
	initial := c.SDM()
	// The floor depends on the draw; requiring half the initial disorder
	// to vanish proves live convergence without flaking on the floor.
	advanceUntil(t, c, 500, func() bool { return c.SDM() <= initial/2 }, "SDM halved")
}

// A live ranking cluster must drive most nodes to their correct slice.
func TestLiveRankingClusterConverges(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 32, Partition: testPartition(t, 4), ViewSize: 8,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 11,
	})
	advanceUntil(t, c, 500,
		func() bool { return c.MisassignedFraction() <= 0.15 }, "misassigned ≤ 0.15")
}

// Crashing a third of the nodes must not stop the survivors from
// (re)converging — the protocols are gossip-based and churn-tolerant.
func TestLiveClusterSurvivesCrashes(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 30, Partition: testPartition(t, 3), ViewSize: 8,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 13,
	})
	if err := c.Advance(10 * testPeriod); err != nil {
		t.Fatal(err)
	}
	// Kill 10 nodes (every third id).
	for id := core.ID(3); id <= 30; id += 3 {
		if !c.Kill(id) {
			t.Fatalf("Kill(%v) found no node", id)
		}
	}
	if got := len(c.Nodes()); got != 20 {
		t.Fatalf("%d nodes alive, want 20", got)
	}
	advanceUntil(t, c, 500,
		func() bool { return c.MisassignedFraction() <= 0.25 }, "survivors misassigned ≤ 0.25")
}

// Nodes joining a running cluster integrate: they bootstrap from live
// views, gossip, and converge with everyone else.
func TestLiveClusterJoins(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 16, Partition: testPartition(t, 2), ViewSize: 6,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 29,
	})
	if err := c.Advance(10 * testPeriod); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Join(core.Attr(100*i + 50)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Nodes()); got != 24 {
		t.Fatalf("%d nodes alive, want 24", got)
	}
	advanceUntil(t, c, 500,
		func() bool { return c.MisassignedFraction() <= 0.25 }, "joined cluster misassigned ≤ 0.25")
}

// The protocols must tolerate message loss, injected by the scheduler's
// internal network.
func TestLiveClusterToleratesLoss(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 24, Partition: testPartition(t, 3), ViewSize: 8,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 17,
		Loss: 0.3,
	})
	advanceUntil(t, c, 800,
		func() bool { return c.MisassignedFraction() <= 0.2 }, "lossy cluster misassigned ≤ 0.2")
	if counts := c.MessageCounts(); counts.Dropped == 0 {
		t.Error("loss injection dropped nothing")
	}
}

// Latency injection delays deliveries on the virtual timeline without
// breaking convergence.
func TestLiveClusterToleratesLatency(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 24, Partition: testPartition(t, 3), ViewSize: 8,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 19,
		MinLatency: testPeriod / 4, MaxLatency: testPeriod,
	})
	advanceUntil(t, c, 800,
		func() bool { return c.MisassignedFraction() <= 0.2 }, "laggy cluster misassigned ≤ 0.2")
	if counts := c.MessageCounts(); counts.Total() == 0 {
		t.Error("no messages delivered")
	}
}

func TestStatusSnapshot(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		N: 4, Partition: testPartition(t, 2), ViewSize: 3,
		Protocol: proto.Ranking,
		Period:   time.Millisecond,
		AttrDist: dist.Uniform{Lo: 0, Hi: 10}, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	st := c.Nodes()[0].Status()
	if st.ID != 1 {
		t.Errorf("Status.ID = %v, want 1", st.ID)
	}
	if st.ViewLen == 0 {
		t.Error("bootstrap view empty")
	}
	if !st.Slice.Valid() {
		t.Errorf("Status.Slice = %v invalid", st.Slice)
	}
}

// Window estimators run live, too.
func TestLiveClusterWindowEstimator(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 16, Partition: testPartition(t, 2), ViewSize: 6,
		Protocol:   proto.Ranking,
		Estimators: func() ranking.Estimator { return ranking.MustNewWindow(512) },
		AttrDist:   dist.Uniform{Lo: 0, Hi: 100}, Seed: 23,
	})
	advanceUntil(t, c, 500,
		func() bool { return c.MisassignedFraction() <= 0.25 }, "window cluster misassigned ≤ 0.25")
}

// AwaitSDM on a driven cluster advances virtual time instead of
// sleeping: the timeout is virtual, so the call is wall-clock-free.
func TestAwaitSDMDriven(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 16, Partition: testPartition(t, 2), ViewSize: 6,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100}, Seed: 31,
	})
	initial := c.SDM()
	got, ok := c.AwaitSDM(initial/2, 500*testPeriod)
	if !ok {
		t.Fatalf("AwaitSDM stuck at %v (initial %v)", got, initial)
	}
}

// The jitter sentinel: zero means the default, JitterNone means none.
func TestJitterFracSentinel(t *testing.T) {
	tr := loopbackTransport(t)
	base := NodeConfig{
		ID: 1, Attr: 5, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ordering, Period: time.Second, Transport: tr,
		Seed: 3,
	}

	t.Run("zero means default", func(t *testing.T) {
		n, err := NewNode(base)
		if err != nil {
			t.Fatal(err)
		}
		if n.jitter != DefaultJitterFrac {
			t.Fatalf("jitter = %v, want DefaultJitterFrac %v", n.jitter, DefaultJitterFrac)
		}
		saw := false
		for i := 0; i < 50; i++ {
			if n.nextPeriod() != base.Period {
				saw = true
				break
			}
		}
		if !saw {
			t.Error("default jitter produced 50 identical periods")
		}
	})

	t.Run("JitterNone means strictly periodic", func(t *testing.T) {
		cfg := base
		cfg.ID = 2
		cfg.JitterFrac = JitterNone
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n.jitter != 0 {
			t.Fatalf("jitter = %v, want 0", n.jitter)
		}
		for i := 0; i < 50; i++ {
			if got := n.nextPeriod(); got != base.Period {
				t.Fatalf("nextPeriod = %v, want exactly %v", got, base.Period)
			}
		}
	})

	t.Run("explicit value sticks", func(t *testing.T) {
		cfg := base
		cfg.ID = 3
		cfg.JitterFrac = 0.25
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n.jitter != 0.25 {
			t.Fatalf("jitter = %v, want 0.25", n.jitter)
		}
	})
}

// A rejoin into a fully drained cluster must not panic: the joiner
// simply starts with an empty bootstrap view and waits for peers.
func TestJoinIntoDrainedCluster(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 4, Partition: testPartition(t, 2), ViewSize: 3,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100}, Seed: 37,
	})
	for id := core.ID(1); id <= 4; id++ {
		if !c.Kill(id) {
			t.Fatalf("Kill(%v) found no node", id)
		}
	}
	if got := len(c.Nodes()); got != 0 {
		t.Fatalf("%d nodes alive after draining, want 0", got)
	}
	n, err := c.Join(42)
	if err != nil {
		t.Fatalf("Join into empty cluster: %v", err)
	}
	if _, err := c.Join(77); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(20 * testPeriod); err != nil {
		t.Fatal(err)
	}
	if st := n.Status(); st.ViewLen == 0 {
		t.Error("rejoined node never learned a peer from the second joiner")
	}
}

// Lifecycle calls after Stop fail fast instead of deadlocking against
// the halted worker pool.
func TestStoppedClusterRefusesWork(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 4, Partition: testPartition(t, 2), ViewSize: 3,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100}, Seed: 41,
	})
	if err := c.Advance(5 * testPeriod); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if err := c.Advance(testPeriod); !errors.Is(err, ErrStopped) {
		t.Errorf("Advance after Stop = %v, want ErrStopped", err)
	}
	if err := c.Start(); !errors.Is(err, ErrStopped) {
		t.Errorf("Start after Stop = %v, want ErrStopped", err)
	}
	if _, err := c.Join(9); !errors.Is(err, ErrStopped) {
		t.Errorf("Join after Stop = %v, want ErrStopped", err)
	}
	// An unreachable target must time out instead of deadlocking against
	// the halted worker pool (SDM is never negative).
	if _, ok := c.AwaitSDM(-1, 10*testPeriod); ok {
		t.Error("AwaitSDM after Stop reported success")
	}
}

// Nodes() hands out a snapshot the caller owns: killing nodes while
// iterating a pre-Kill snapshot must not plant nils under the loop.
func TestKillWhileIteratingNodesSnapshot(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 10, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100}, Seed: 43,
	})
	killed := 0
	for _, n := range c.Nodes() {
		if n == nil {
			t.Fatal("nil node in a Nodes() snapshot")
		}
		if n.ID()%2 == 0 {
			if !c.Kill(n.ID()) {
				t.Fatalf("Kill(%v) found no node", n.ID())
			}
			killed++
		}
	}
	if killed != 5 || len(c.Nodes()) != 5 {
		t.Fatalf("killed %d, %d nodes left, want 5/5", killed, len(c.Nodes()))
	}
}

// A jitter fraction of 1 or more would make drawn periods non-positive
// (a driven scheduler could then re-tick a node forever inside one
// batch); both config surfaces reject it.
func TestJitterFracUpperBound(t *testing.T) {
	tr := loopbackTransport(t)
	_, err := NewNode(NodeConfig{
		ID: 1, Attr: 5, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ordering, Period: time.Millisecond, Transport: tr,
		JitterFrac: 1,
	})
	if !errors.Is(err, ErrBadJitter) {
		t.Errorf("NewNode(JitterFrac=1) = %v, want ErrBadJitter", err)
	}
	_, err = NewCluster(ClusterConfig{
		N: 4, Partition: testPartition(t, 2), ViewSize: 3,
		Protocol: proto.Ranking, Period: time.Millisecond,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1}, JitterFrac: 1.5,
	})
	if !errors.Is(err, ErrBadJitter) {
		t.Errorf("NewCluster(JitterFrac=1.5) = %v, want ErrBadJitter", err)
	}
}

// The ID space ends at core.MaxID: once it is issued, Join fails with
// ErrIDRange and leaves the cluster as it was, instead of wrapping the
// next ID onto the reserved ID 0.
func TestJoinPastMaxIDFails(t *testing.T) {
	c := drivenCluster(t, ClusterConfig{
		N: 8, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 5,
	})
	c.nextID = core.MaxID
	if n, err := c.Join(1); !errors.Is(err, core.ErrIDRange) {
		t.Fatalf("Join after MaxID = (%v, %v), want ErrIDRange", n, err)
	}
	if got := len(c.Nodes()); got != 8 || c.nextID != core.MaxID {
		t.Errorf("failed Join left %d nodes and nextID %v, want 8 and %v", got, c.nextID, core.MaxID)
	}
}
