package serving

import (
	"sync"
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/runtime"
)

const testPeriod = 2 * time.Millisecond

// testCluster builds a seeded driven ranking cluster (virtual clock, one
// shard, so the trajectory repeats) and gossips it for periods periods.
// It stays quiescent between Advance calls, so its nodes' state is
// stable while a test queries it.
func testCluster(t *testing.T, n, periods int) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewCluster(runtime.ClusterConfig{
		N: n, Partition: core.MustEqual(4), ViewSize: 8,
		Protocol: proto.Ranking,
		Period:   testPeriod,
		AttrDist: dist.Uniform{Lo: 0, Hi: 100},
		Seed:     11,
		Clock:    runtime.NewVirtualClock(),
		Shards:   1,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Advance(time.Duration(periods) * testPeriod); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	return c
}

// checkTopK checks a top-k answer's member list: best rank first (ID
// breaking ties), every member at or above the cut, no ID twice, and
// the answering node listed exactly when it counts itself in.
func checkTopK(t *testing.T, who string, top TopKAnswer) {
	t.Helper()
	seen := make(map[core.ID]bool, len(top.Members))
	for i, m := range top.Members {
		if seen[m.ID] {
			t.Errorf("%s: TopK(%v) lists node %d twice", who, top.Frac, m.ID)
		}
		seen[m.ID] = true
		if m.Rank < 1-top.Frac {
			t.Errorf("%s: TopK(%v) member %d rank %v below the cut", who, top.Frac, m.ID, m.Rank)
		}
		if i > 0 {
			prev := top.Members[i-1]
			if m.Rank > prev.Rank || (m.Rank == prev.Rank && m.ID < prev.ID) {
				t.Errorf("%s: TopK(%v) members not sorted best-first at %d", who, top.Frac, i)
			}
		}
	}
	if seen[top.Node] != top.SelfIncluded {
		t.Errorf("%s: TopK(%v) answering node %d listed=%v, SelfIncluded=%v",
			who, top.Frac, top.Node, seen[top.Node], top.SelfIncluded)
	}
}

func TestLiveQuerierAnswers(t *testing.T) {
	c := testCluster(t, 48, 40)
	nodes := c.Nodes()
	byID := make(map[core.ID]*runtime.Node, len(nodes))
	for _, n := range nodes {
		byID[n.Status().ID] = n
	}
	part := nodes[0].Partition()
	cq, err := NewClusterQuerier(c, Calibration{})
	if err != nil {
		t.Fatalf("NewClusterQuerier: %v", err)
	}
	one := nodes[5]
	oneID := one.Status().ID
	for name, q := range map[string]SliceQuerier{"cluster": cq, "node": NewNodeQuerier(one, Calibration{})} {
		for _, attr := range []float64{-10, 0, 12.5, 50, 87.5, 100, 250} {
			ans, err := q.SliceOf(attr)
			if err != nil {
				t.Fatalf("%s: SliceOf(%v): %v", name, attr, err)
			}
			if !unit(ans.Rank) || !unit(ans.Staleness.Bound) {
				t.Errorf("%s: SliceOf(%v) rank %v bound %v outside [0,1]", name, attr, ans.Rank, ans.Staleness.Bound)
			}
			if want := part.Index(ans.Rank); ans.SliceIx != want {
				t.Errorf("%s: SliceOf(%v) slice %d, want Partition.Index(%v) = %d", name, attr, ans.SliceIx, ans.Rank, want)
			}
			if name == "node" && ans.Node != oneID {
				t.Errorf("node querier answered from node %d, want %d", ans.Node, oneID)
			}
		}
		for _, frac := range []float64{0.1, 0.25, 0.5, 1} {
			top, err := q.TopK(frac)
			if err != nil {
				t.Fatalf("%s: TopK(%v): %v", name, frac, err)
			}
			if !unit(top.Staleness.Bound) {
				t.Errorf("%s: TopK(%v) bound %v outside [0,1]", name, frac, top.Staleness.Bound)
			}
			checkTopK(t, name, top)
		}
		for i := 0; i < 5; i++ {
			snap, err := q.Snapshot()
			if err != nil {
				t.Fatalf("%s: Snapshot: %v", name, err)
			}
			n, ok := byID[snap.Node]
			if !ok {
				t.Fatalf("%s: Snapshot from unknown node %d", name, snap.Node)
			}
			if want := n.Status().ViewLen; snap.ViewLen != want {
				t.Errorf("%s: Snapshot of node %d ViewLen %d, Status().ViewLen %d", name, snap.Node, snap.ViewLen, want)
			}
			if !unit(snap.Rank) || !unit(snap.Staleness.Bound) {
				t.Errorf("%s: Snapshot rank %v bound %v outside [0,1]", name, snap.Rank, snap.Staleness.Bound)
			}
			if want := part.Index(snap.Rank); snap.SliceIx != want {
				t.Errorf("%s: Snapshot slice %d, want Partition.Index(%v) = %d", name, snap.SliceIx, snap.Rank, want)
			}
		}
	}
}

// TestSimQuerierTopKConcurrentRefresh runs TopK while another goroutine
// steps the engine and refreshes: every answer must come from one
// snapshot, so each member's rank is the one the engine held at the
// cycle the answer's staleness reports. A twin engine on the same seed
// records those ranks up front.
func TestSimQuerierTopKConcurrentRefresh(t *testing.T) {
	const n, refreshes, readers = 200, 30, 4
	twin := testEngine(t, n, 0)
	ranks := make([]map[core.ID]float64, refreshes+1)
	for c := range ranks {
		ranks[c] = make(map[core.ID]float64, n)
		for _, st := range twin.States() {
			ranks[c][st.Member.ID] = st.R
		}
		twin.Run(1)
	}

	e := testEngine(t, n, 0)
	q := NewSimQuerier(e, Calibration{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				top, err := q.TopK(0.5)
				if err != nil {
					t.Errorf("TopK: %v", err)
					return
				}
				checkTopK(t, "sim", top)
				want := ranks[top.Staleness.Ticks]
				for _, m := range top.Members {
					if m.Rank != want[m.ID] {
						t.Errorf("answer at cycle %d lists node %d at rank %v, the engine held %v: a torn snapshot",
							top.Staleness.Ticks, m.ID, m.Rank, want[m.ID])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < refreshes; i++ {
		e.Run(1)
		q.Refresh(e)
	}
	close(done)
	wg.Wait()
}
