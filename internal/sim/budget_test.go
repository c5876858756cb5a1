package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/view"
)

// The engine stores one swap-counter block and one view header per slot,
// so a field added to either is paid a million times over; the live
// runtime keeps one ordering.Node or ranking.Node per node. These are
// budgets, not measurements: raise one only with a benchmark run that
// shows what the bytes bought.
func TestNodeSizeBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"ordering.Node", unsafe.Sizeof(ordering.Node{}), 96},
		{"ordering.Stats", unsafe.Sizeof(ordering.Stats{}), 48},
		{"ranking.Node", unsafe.Sizeof(ranking.Node{}), 64},
		{"view.View", unsafe.Sizeof(view.View{}), 24},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, budget %d", c.name, c.got, c.want)
		}
	}
}

// The audited engine bytes per node at N=10k, c=20, Cyclon, once two
// cycles have touched every staging buffer. The audit is deterministic
// (slice capacities, not GC state): 1109.0 and 1100.0 when pinned.
func TestEngineBytesPerNodeBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		proto  proto.Kind
		budget float64
	}{
		{"ordering", proto.Ordering, 1117},
		{"ranking", proto.Ranking, 1108},
	} {
		e, err := New(Config{
			N: 10_000, Slices: 100, ViewSize: 20, Protocol: c.proto,
			Policy: ordering.SelectMaxGain, AttrDist: dist.Uniform{Lo: 0, Hi: 1000},
			Seed: 1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(2)
		m := e.MemReport()
		t.Logf("%s: arena=%d state=%d staging=%d → %.1f B/node", c.name, m.ArenaBytes, m.StateBytes, m.StagingBytes, m.BytesPerNode)
		if m.BytesPerNode > c.budget {
			t.Errorf("%s: %.1f engine bytes/node, budget %.0f", c.name, m.BytesPerNode, c.budget)
		}
	}
}

// The slice headers the exchange and protocol rounds read per node lead
// Engine, in this order (see the comment on Engine): a field added
// ahead of them, or a Config edit, must not shift them onto other cache
// lines.
func TestEngineHotFieldsLead(t *testing.T) {
	hot := []string{"ids", "slots", "stats", "rs", "attrs", "views",
		"swapTo", "overlapBuf", "coordTab",
		"memTarget", "reqStore", "reqLen", "initList", "ests", "updTo", "rankDst"}
	ty, header := reflect.TypeOf(Engine{}), unsafe.Sizeof([]int(nil))
	for i, name := range hot {
		if f := ty.Field(i); f.Name != name || f.Offset != uintptr(i)*header {
			t.Errorf("Engine field %d is %s at offset %d, want %s at %d", i, f.Name, f.Offset, name, uintptr(i)*header)
		}
	}
}

// The MemReport ledger accounts for every byte the engine keeps per
// node: the live heap an engine holds after two collections, divided by
// its population, reads within 2 % of MemReport.BytesPerNode. A
// resident per-node buffer the report does not list breaks this. The
// churned run also covers what only churn allocates: the grown
// membership and the join path's appends.
func TestMemReportMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations distort heap readings")
	}
	const n = 50_000
	for _, c := range []struct {
		name   string
		proto  proto.Kind
		churn  bool
		cycles int
	}{
		{"ordering", proto.Ordering, false, 2},
		{"ranking", proto.Ranking, false, 2},
		{"ranking-churn", proto.Ranking, true, 5},
	} {
		cfg := Config{
			N: n, Slices: 100, ViewSize: 20, Protocol: c.proto,
			Policy: ordering.SelectMaxGain, AttrDist: dist.Uniform{Lo: 0, Hi: 1000},
			Seed: 1, Workers: 1,
		}
		if c.churn {
			cfg.Schedule = churn.Flat{JoinRate: 0.001, LeaveRate: 0.001}
			cfg.Pattern = churn.Uniform{Dist: dist.Uniform{Lo: 0, Hi: 1000}}
		}
		before := liveHeap()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(c.cycles)
		heap := float64(int64(liveHeap())-int64(before)) / float64(e.N())
		m := e.MemReport()
		runtime.KeepAlive(e)
		t.Logf("%s: heap %.1f B/node, MemReport %.1f B/node", c.name, heap, m.BytesPerNode)
		if math.Abs(heap-m.BytesPerNode) > 0.02*m.BytesPerNode {
			t.Errorf("%s: heap holds %.1f B/node, MemReport accounts for %.1f (off by more than 2 %%)",
				c.name, heap, m.BytesPerNode)
		}
	}
}

// liveHeap is HeapAlloc after two collections: the second one frees
// what the first one's finalizers released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
