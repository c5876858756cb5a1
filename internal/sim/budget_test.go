package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
	"github.com/gossipkit/slicing/internal/view"
)

// The engine stores protocol nodes by value and one view header per
// slot, so a field added to any of the three is paid a million times
// over. These are budgets, not measurements: raise one only with a
// benchmark run that shows what the bytes bought.
func TestNodeSizeBudget(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"ordering.Node", unsafe.Sizeof(ordering.Node{}), 104},
		{"ranking.Node", unsafe.Sizeof(ranking.Node{}), 64},
		{"view.View", unsafe.Sizeof(view.View{}), 40},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, budget %d", c.name, c.got, c.want)
		}
	}
}

// The audited engine bytes per node at N=10k, c=20, Cyclon, once two
// cycles have touched every staging buffer. The audit is deterministic
// (slice capacities, not GC state): 1264.7 and 1204.0 when pinned.
func TestEngineBytesPerNodeBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		proto  proto.Kind
		budget float64
	}{
		{"ordering", proto.Ordering, 1273},
		{"ranking", proto.Ranking, 1212},
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
	hot := []string{"ids", "slots", "ons", "rs", "attrs", "views", "snapBuf",
		"swapTo", "swapR", "swapAttr", "overlapBuf", "coordTab",
		"memTarget", "reqStore", "reqLen", "initList", "rns", "updTo", "rankDst"}
	ty, header := reflect.TypeOf(Engine{}), unsafe.Sizeof([]int(nil))
	for i, name := range hot {
		if f := ty.Field(i); f.Name != name || f.Offset != uintptr(i)*header {
			t.Errorf("Engine field %d is %s at offset %d, want %s at %d", i, f.Name, f.Offset, name, uintptr(i)*header)
		}
	}
}
