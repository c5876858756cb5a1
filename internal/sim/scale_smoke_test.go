package sim

import (
	"testing"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
)

// TestMillionNodeSmoke stands the struct-of-arrays engine up at its
// acceptance scale — N=1,000,000 live nodes with churn — and runs a few
// cycles: enough to prove construction, the parallel rounds, swap-delete
// churn and the measurement pass all hold together on ~1.3 GB of engine
// state (~1.6 GB peak RSS on amd64), without paying for a full
// convergence run in the test suite. Skipped under -short and under the
// race detector (the shadow memory alone would multiply the footprint
// several-fold).
func TestMillionNodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node smoke is not a -short test")
	}
	if raceEnabled {
		t.Skip("million-node smoke under -race would need several GB of shadow memory")
	}
	cfg := Config{
		N: 1_000_000, Slices: 100, ViewSize: 20,
		Protocol: proto.Ordering, Policy: ordering.SelectMaxGain,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 9,
		Schedule: churn.Flat{JoinRate: 0.001, LeaveRate: 0.001},
		Pattern:  churn.Uniform{Dist: dist.Uniform{Lo: 0, Hi: 1000}},
		Workers:  4,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	start, _ := e.SDM().At(0)
	end, _ := e.SDM().Last()
	if end.Value >= start {
		t.Errorf("disorder did not fall over 3 cycles: SDM %v → %v", start, end.Value)
	}
	mem := e.MemReport()
	if mem.Nodes < 990_000 || mem.Nodes > 1_010_000 {
		t.Errorf("population drifted implausibly under 0.1%% churn: %d nodes", mem.Nodes)
	}
	// The budget the README advertises: the engine must stay around
	// ~1.3 kB per node, and well under 2.5 kB — a per-node map, pointer
	// field or stray per-node buffer would blow straight through this.
	if bpn := mem.BytesPerNode; bpn <= 0 || bpn > 2500 {
		t.Errorf("engine bytes/node = %.0f, want (0, 2500]", bpn)
	}
	checkArenaConsistency(t, e)
}
