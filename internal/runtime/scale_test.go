package runtime

import (
	"testing"
	"time"

	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/proto"
)

// A live in-process cluster at N=10,000 completes a timed convergence run
// on the sharded scheduler: the goroutine-per-node design this replaces
// topped out far below this. Driven virtual time keeps the run
// compute-bound (~2s at full size without the race detector; the
// population shrinks under race instrumentation's ~10x slowdown, and the
// benchmark's live-ordering-10k workload runs the full size).
func TestLiveClusterTenThousandNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node cluster skipped in -short mode")
	}
	n := 10_000
	if raceEnabled {
		n = 2_500
	}
	c := drivenCluster(t, ClusterConfig{
		N: n, Partition: testPartition(t, 100), ViewSize: 20,
		Protocol: proto.Ranking, Period: 10 * time.Millisecond,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1,
	})
	initial := c.SDM()
	start := time.Now()
	const cycles = 20
	for i := 0; i < cycles; i++ {
		if err := c.Advance(c.cfg.Period); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	final := c.SDM()
	t.Logf("N=%d: %d cycles in %v (%.1f cycles/s), SDM %.0f -> %.0f",
		n, cycles, elapsed, float64(cycles)/elapsed.Seconds(), initial, final)
	if final > initial/2 {
		t.Fatalf("SDM %v did not halve from %v in %d cycles at N=%d", final, initial, cycles, n)
	}
	if len(c.Nodes()) != n {
		t.Fatalf("population drifted: %d nodes, want %d", len(c.Nodes()), n)
	}
}
