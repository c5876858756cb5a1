package runtime

import (
	"math"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/proto"
)

// lossyCluster builds a single-shard driven cluster with seeded message
// loss. One shard matters: with several shards the loss RNG draws are
// ordered by goroutine interleaving, and only the structure — not the
// exact counts — is reproducible.
func lossyCluster(t *testing.T, seed int64, loss float64) *Cluster {
	t.Helper()
	return drivenCluster(t, ClusterConfig{
		N:         32,
		Partition: testPartition(t, 4),
		ViewSize:  6,
		Protocol:  proto.Ranking,
		AttrDist:  dist.Uniform{Lo: 0, Hi: 100},
		Seed:      seed,
		Shards:    1,
		Loss:      loss,
	})
}

// TestMessageCountsDeterministicUnderLoss pins the reproducibility
// contract of the driven runtime: two clusters built from the same
// seed, advanced the same number of periods on one shard, tally
// byte-identical message counts even with loss injection enabled —
// every drop decision comes from the seeded RNG, not from timing.
func TestMessageCountsDeterministicUnderLoss(t *testing.T) {
	const (
		seed   = 42
		loss   = 0.2
		cycles = 30
	)
	run := func() MessageCounts {
		c := lossyCluster(t, seed, loss)
		if err := c.Advance(cycles * testPeriod); err != nil {
			t.Fatal(err)
		}
		return c.MessageCounts()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("seeded lossy runs diverged:\n  first  %+v\n  second %+v", a, b)
	}
	total := a.ViewRequests + a.ViewReplies + a.SwapRequests + a.SwapReplies + a.RankUpdates + a.Dropped
	if total == 0 {
		t.Fatal("no messages recorded after advancing the cluster")
	}
	if a.Dropped == 0 {
		t.Error("Loss = 0.2 but no messages were dropped")
	}
	// The drop fraction should track the configured loss probability.
	// Tolerance is generous — the sample is a few thousand sends — but
	// tight enough to catch the classic off-by-layer bugs (dropping
	// twice, or sampling loss on replies only).
	frac := float64(a.Dropped) / float64(total)
	if frac < loss/2 || frac > loss*2 {
		t.Errorf("dropped fraction = %.3f (%d/%d), want within [%.2f, %.2f] of configured loss %.2f",
			frac, a.Dropped, total, loss/2, loss*2, loss)
	}
	// A different seed must give different counts — otherwise the
	// "determinism" above is just the counts being constant.
	c := lossyCluster(t, seed+1, loss)
	if err := c.Advance(cycles * testPeriod); err != nil {
		t.Fatal(err)
	}
	if other := c.MessageCounts(); other == a {
		t.Errorf("different seed produced identical counts %+v — counts are not seed-sensitive", a)
	}
}

// clusterSDM measures the cluster's slice disorder from node snapshots,
// exactly like the scenario layer's live recorder.
func clusterSDM(c *Cluster, part core.Partition) float64 {
	nodes := c.Nodes()
	states := make([]metrics.NodeState, 0, len(nodes))
	for _, n := range nodes {
		st := n.Status()
		states = append(states, metrics.NodeState{
			Member:     core.Member{ID: st.ID, Attr: st.Attr},
			R:          st.R,
			SliceIndex: st.SliceIx,
		})
	}
	return metrics.SDM(states, part)
}

// TestPartitionHealDeterministic extends the reproducibility contract
// to the fault plane: two same-seed single-shard runs that open a
// 2-group partition mid-run and heal it later must produce
// byte-identical message counts, fault tallies, AND per-cycle SDM
// series. The partition check is a pure hash performed before any RNG
// draw, so black-holed traffic consumes no randomness and the healed
// run replays bit-for-bit.
func TestPartitionHealDeterministic(t *testing.T) {
	const (
		seed     = 42
		partSalt = 7
		pre      = 10 // cycles before the partition opens
		during   = 10 // partitioned cycles
		post     = 10 // cycles after heal
	)
	part := testPartition(t, 4)
	type outcome struct {
		counts MessageCounts
		faults fault.Counts
		sdm    []float64
	}
	run := func() outcome {
		c := drivenCluster(t, ClusterConfig{
			N:         32,
			Partition: part,
			ViewSize:  6,
			Protocol:  proto.Ranking,
			AttrDist:  dist.Uniform{Lo: 0, Hi: 100},
			Seed:      seed,
			Shards:    1,
		})
		var o outcome
		step := func(cycles int) {
			for i := 0; i < cycles; i++ {
				if err := c.Advance(testPeriod); err != nil {
					t.Fatal(err)
				}
				o.sdm = append(o.sdm, clusterSDM(c, part))
			}
		}
		step(pre)
		atOpen := c.FaultCounts()
		if atOpen.PartitionDrops != 0 {
			t.Fatalf("partition drops before the partition opened: %+v", atOpen)
		}
		if err := c.SetNetFaults(fault.Net{Part: &fault.Partition{Groups: 2}, PartSalt: partSalt}, 0); err != nil {
			t.Fatal(err)
		}
		step(during)
		atHeal := c.FaultCounts()
		if atHeal.PartitionDrops == 0 {
			t.Error("no cross-group traffic black-holed during the partition window")
		}
		if err := c.SetNetFaults(fault.Net{}, 0); err != nil {
			t.Fatal(err)
		}
		step(post)
		o.counts = c.MessageCounts()
		o.faults = c.FaultCounts()
		if o.faults.PartitionDrops != atHeal.PartitionDrops {
			t.Errorf("drops kept rising after heal: %d at heal, %d at end",
				atHeal.PartitionDrops, o.faults.PartitionDrops)
		}
		return o
	}
	a, b := run(), run()
	if a.counts != b.counts {
		t.Errorf("partitioned same-seed runs diverged in counts:\n  first  %+v\n  second %+v", a.counts, b.counts)
	}
	if a.faults != b.faults {
		t.Errorf("partitioned same-seed runs diverged in fault tallies:\n  first  %+v\n  second %+v", a.faults, b.faults)
	}
	if len(a.sdm) != len(b.sdm) {
		t.Fatalf("SDM series lengths differ: %d vs %d", len(a.sdm), len(b.sdm))
	}
	for i := range a.sdm {
		if a.sdm[i] != b.sdm[i] || math.IsNaN(a.sdm[i]) {
			t.Errorf("SDM series diverged at cycle %d: %v vs %v", i, a.sdm[i], b.sdm[i])
		}
	}
}
