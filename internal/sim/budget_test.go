package sim

import (
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
		{"view.View", unsafe.Sizeof(view.View{}), 56},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, budget %d", c.name, c.got, c.want)
		}
	}
}

// The audited engine bytes per node at N=10k, c=20, Cyclon, once two
// cycles have touched every staging buffer. The audit is deterministic
// (slice capacities, not GC state): 1806.6 and 1768.0 when pinned.
func TestEngineBytesPerNodeBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		proto  proto.Kind
		budget float64
	}{
		{"ordering", proto.Ordering, 1815},
		{"ranking", proto.Ranking, 1776},
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
