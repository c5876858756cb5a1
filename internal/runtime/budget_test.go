package runtime

import (
	goruntime "runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/proto"
)

// A live node is a view of c entries, one attribute, one random value
// and 8 bytes of generator state, plus the scheduler's and the
// protocol wrappers' bookkeeping. The budget is the live heap a driven
// 2,000-node ordering cluster retains per node after gossiping: 1,610 B
// against ~1,594 measured when set (~1,618 before the ordering Node
// packed its policy beside its 32-bit ID, 112 → 96 B, and the view
// header dropped its capacity word, 32 → 24 B; ~2,141 before view
// entries shrank from 32 to 24 bytes and lost their 8-byte packed ID
// mirror, and the shard slot from 56 to 48 bytes; ~2,157 before the write-only
// telemetry pointer left the Node and its allocation fell from the
// 208- to the 192-byte size class; ~2,406 before a node's standalone
// stop/done channels were made lazily by Start and the scheduler's two
// per-shard maps became one 56-byte slot per node). A per-node
// math/rand source alone is 5,376 B, and views allowed to grow past c
// or private tick scratch are another ~1,500 B each.
func TestLiveHeapPerNodeBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what the heap holds")
	}
	const n, steps, budget = 2_000, 20, 1_610
	liveHeap := func() uint64 {
		goruntime.GC()
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	c := drivenCluster(t, ClusterConfig{
		N: n, Partition: testPartition(t, 100), ViewSize: 20,
		Protocol: proto.Ordering, Period: 10 * time.Millisecond,
		MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1, Shards: 1,
	})
	for i := 0; i < steps; i++ {
		if err := c.Advance(c.cfg.Period); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	goruntime.KeepAlive(c)
	perNode := float64(after-min(after, before)) / n
	t.Logf("N=%d after %d steps: %.0f live heap bytes/node", n, steps, perNode)
	if perNode > budget {
		t.Errorf("live heap is %.0f bytes/node, budget %d", perNode, budget)
	}
}

// A delivered message costs its envelope and interface box, not a fresh
// view payload: one pooled buffer carries each Cyclon exchange from
// request to reply and back. The budget is the bytes a driven 2,000-node
// ordering cluster allocates per delivered message over 20 warmed
// steps: 128 B. It measures ~53 B; it was ~530 when every request and
// reply copied a view (~670 B) into a new slice.
func TestLiveAllocBytesPerMessageBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates, and sync.Pool drops items at random")
	}
	const n, warm, steps, budget = 2_000, 10, 20, 128
	c := drivenCluster(t, ClusterConfig{
		N: n, Partition: testPartition(t, 100), ViewSize: 20,
		Protocol: proto.Ordering, Period: 10 * time.Millisecond,
		MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1, Shards: 1,
	})
	advance := func(k int) {
		for i := 0; i < k; i++ {
			if err := c.Advance(c.cfg.Period); err != nil {
				t.Fatal(err)
			}
		}
	}
	advance(warm)
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	alloc0, msgs0 := ms.TotalAlloc, c.MessageCounts().Total()
	advance(steps)
	goruntime.ReadMemStats(&ms)
	msgs := c.MessageCounts().Total() - msgs0
	if msgs == 0 {
		t.Fatal("no messages delivered")
	}
	perMsg := float64(ms.TotalAlloc-alloc0) / float64(msgs)
	t.Logf("N=%d over %d steps: %d messages, %.1f allocated bytes/message", n, steps, msgs, perMsg)
	if perMsg > budget {
		t.Errorf("%.1f allocated bytes per delivered message, budget %d", perMsg, budget)
	}
}

// Every pending tick and in-flight message is one timer-wheel event, and
// every heap sift copies them: an int64 deadline and 32-bit from/to IDs
// keep one at 48 B, where 64-bit IDs made it 56 and a time.Time 72.
func TestEventSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 48 {
		t.Errorf("event is %d bytes, budget 48", got)
	}
}

// A shard slot is a handler and four footprint pointers with a length
// byte each, read on every event: 48 B. A shard keeps one per node ID it
// ever issued, so a departed node still costs its slot.
func TestSlotSizeBudget(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got > 48 {
		t.Errorf("slot is %d bytes, budget 48", got)
	}
}

// Regression: buildNode used to seed node i of a cluster seeded s with
// s+i, so (seed s, node i+1) and (seed s+1, node i) drew one stream and
// sweeps over adjacent seeds were correlated.
func TestAdjacentSeedClustersDoNotShareNodeStreams(t *testing.T) {
	build := func(seed int64) *Cluster {
		return drivenCluster(t, ClusterConfig{
			N: 8, Partition: testPartition(t, 4), ViewSize: 4, Protocol: proto.Ordering,
			AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: seed,
		})
	}
	a, b := build(7), build(8)
	for i := 0; i+1 < len(a.nodes); i++ {
		// Copies: drawing must not disturb the clusters' own streams.
		x, y := a.nodes[i+1].rng, b.nodes[i].rng
		if x.Uint64() == y.Uint64() {
			t.Errorf("(seed 7, node %d) and (seed 8, node %d) share a first draw", i+2, i+1)
		}
	}
}
