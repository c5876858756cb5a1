package runtime

import (
	"sync"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/proto"
)

// Slice-change notifications fire as nodes move between slices while the
// estimates converge, and the final notification matches the node's
// settled slice. Driven by virtual time: no sleeps, no wall-clock
// deadlines.
func TestOnSliceChangeNotifications(t *testing.T) {
	clk := NewVirtualClock()
	c, err := NewCluster(ClusterConfig{
		N: 16, Partition: testPartition(t, 4), ViewSize: 6,
		Protocol: proto.Ranking,
		Period:   testPeriod, Clock: clk,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var mu sync.Mutex
	lastSeen := make(map[core.ID]int)
	fired := 0
	for _, n := range c.Nodes() {
		n.OnSliceChange(func(id core.ID, old, new int) {
			mu.Lock()
			defer mu.Unlock()
			fired++
			lastSeen[id] = new
		})
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	advanceUntil(t, c, 500,
		func() bool { return c.MisassignedFraction() <= 0.3 }, "misassigned ≤ 0.3")
	// One more quiescent period, then compare the last notified slice
	// with the status. Advance returns only once all deliveries have
	// drained, so no grace sleep is needed.
	if err := c.Advance(testPeriod); err != nil {
		t.Fatal(err)
	}
	c.Stop()

	mu.Lock()
	defer mu.Unlock()
	if fired == 0 {
		t.Fatal("no slice-change notifications fired")
	}
	for _, n := range c.Nodes() {
		st := n.Status()
		if last, ok := lastSeen[st.ID]; ok && last != st.SliceIx {
			t.Errorf("node %v: last notification said slice %d, status says %d", st.ID, last, st.SliceIx)
		}
	}
}

func TestOnSliceChangeNotRequired(t *testing.T) {
	// Nodes without a callback run exactly as before.
	c := drivenCluster(t, ClusterConfig{
		N: 8, Partition: testPartition(t, 2), ViewSize: 4,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100}, Seed: 6,
	})
	if err := c.Advance(25 * testPeriod); err != nil {
		t.Fatal(err)
	}
}
