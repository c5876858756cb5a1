package proto

import (
	"math"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

func TestMapReader(t *testing.T) {
	r := MapReader{1: 0.5}
	if v, ok := r.R(1); !ok || v != 0.5 {
		t.Errorf("R(1) = %v,%v", v, ok)
	}
	if _, ok := r.R(2); ok {
		t.Error("R(2) should be unknown")
	}
}

func TestFuncReader(t *testing.T) {
	r := FuncReader(func(id core.ID) (float64, bool) { return float64(id) / 10, id < 5 })
	if v, ok := r.R(3); !ok || v != 0.3 {
		t.Errorf("R(3) = %v,%v", v, ok)
	}
	if _, ok := r.R(7); ok {
		t.Error("R(7) should be unknown")
	}
}

// A live tick resolves neighbors through the nil table: every ID is
// unknown, so each neighbor falls back to its view entry. A filled table
// answers live IDs and reports departed (NaN) and out-of-range IDs
// unknown.
func TestCoordTable(t *testing.T) {
	var empty CoordTable
	for _, id := range []core.ID{0, 1, 99} {
		if _, ok := empty.Coord(id); ok {
			t.Errorf("nil table: Coord(%v) known", id)
		}
	}
	tab := CoordTable{math.NaN(), 0.7, math.NaN(), 0}
	if got, ok := tab.Coord(1); !ok || got != 0.7 {
		t.Errorf("Coord(1) = %v,%v", got, ok)
	}
	if got, ok := tab.Coord(3); !ok || got != 0 {
		t.Errorf("Coord(3) = %v,%v", got, ok)
	}
	for _, id := range []core.ID{0, 2, 4} {
		if _, ok := tab.Coord(id); ok {
			t.Errorf("Coord(%v) known", id)
		}
	}
}

// Every wire message implements the closed Message interface.
func TestMessageMarkers(t *testing.T) {
	msgs := []Message{
		ViewRequest{}, ViewReply{}, SwapRequest{}, SwapReply{}, RankUpdate{},
	}
	if len(msgs) != 5 {
		t.Fatal("expected 5 message types")
	}
}
