package ranking

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/view"
)

// rankTickState draws one tick state for a pair of identical nodes: a
// view sprinkled with placeholders, neighbors the table knows, departed
// neighbors (NaN in the table) and neighbors beyond its end (unknown),
// with estimates from a small pool so boundary distances tie often. It
// returns the two nodes, each on its own estimator and view copy, the
// table, and a reader that answers exactly as the table does. With
// noTable the table is nil and the reader knows nothing: the live tick.
func rankTickState(rng *rand.Rand, noTable bool) (ref, fast *Node, reader proto.MapReader, coords proto.CoordTable) {
	c := 1 + rng.Intn(20)
	v := view.MustNew(c)
	maxID := 2*c + 2
	// The table stops short of the highest IDs: those are unknown.
	coords = make(proto.CoordTable, maxID-rng.Intn(4))
	for i := range coords {
		coords[i] = math.NaN()
	}
	reader = proto.MapReader{}
	pool := 1 + rng.Intn(8)
	drawR := func() float64 { return float64(rng.Intn(pool+1)) / float64(pool) }
	ids := rng.Perm(maxID - 1)
	self := core.ID(ids[0] + 1)
	for i := 1; i <= c; i++ {
		e := view.Entry{ID: core.ID(ids[i] + 1), Attr: core.Attr(rng.Intn(100)), R: drawR(), Age: uint32(rng.Intn(6))}
		if rng.Intn(8) == 0 {
			e.Age = view.AgeUnknown
		}
		v.Add(e)
		if int(e.ID) < len(coords) && rng.Intn(10) < 7 {
			coords[e.ID] = drawR()
			reader[e.ID] = coords[e.ID]
		}
	}
	if noTable {
		coords, reader = nil, proto.MapReader{}
	}
	slices := 2 + rng.Intn(5)
	scanView, boundaryBias := rng.Intn(2) == 0, rng.Intn(2) == 0
	window, attr := 1+rng.Intn(6), core.Attr(rng.Intn(100))
	if rng.Intn(2) == 0 {
		window = 0
	}
	build := func() *Node {
		var est Estimator = NewCounter()
		if window > 0 {
			est = MustNewWindow(window)
		}
		n, err := NewNode(Config{
			ID: self, Attr: attr, Partition: core.MustEqual(slices),
			Estimator: est, View: v.Clone(),
			DisableViewScan: !scanView, DisableBoundaryBias: !boundaryBias,
		})
		if err != nil {
			panic(err)
		}
		return n
	}
	return build(), build(), reader, coords
}

// TestTickTargetsFastMatchesTickTargets is the ranking tick's property
// pin: over random views with placeholders, departed and unknown IDs,
// tied boundary distances and a nil table, both ablation switches and
// both estimators, TickTargetsFast must pick the same (j1, j2, ok) as
// TickTargets over a reader answering as the table does, leave the RNG
// at the same next draw, and leave equal Stats and estimator state.
func TestTickTargetsFastMatchesTickTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var scrRef, scrFast Scratch
	var ties, sent int
	for trial := 0; trial < 3000; trial++ {
		ref, fast, reader, coords := rankTickState(rng, trial%4 == 3)
		for k := 0; k < 1+rng.Intn(3); k++ {
			seed := rng.Int63()
			refRng, fastRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			r1, r2, rok := ref.TickTargets(reader, refRng, &scrRef)
			f1, f2, fok := fast.TickTargetsFast(coords, fastRng, &scrFast)
			if r1 != f1 || r2 != f2 || rok != fok {
				t.Fatalf("trial %d: targets diverge: reference (%v, %v, %v), fast (%v, %v, %v)",
					trial, r1, r2, rok, f1, f2, fok)
			}
			if a, b := refRng.Int63(), fastRng.Int63(); a != b {
				t.Fatalf("trial %d: RNG left at different draws: %v vs %v", trial, a, b)
			}
			if ref.stats != fast.stats {
				t.Fatalf("trial %d: stats diverge: %+v vs %+v", trial, ref.stats, fast.stats)
			}
			if !reflect.DeepEqual(ref.est, fast.est) {
				t.Fatalf("trial %d: estimator state diverges: %+v vs %+v", trial, ref.est, fast.est)
			}
			if rok {
				sent++
				if ref.boundaryBias && hasBoundaryTie(ref, reader) {
					ties++
				}
			}
		}
	}
	t.Logf("%d ticks sent, %d with a tied closest boundary distance", sent, ties)
	if sent < 1000 || ties < 200 {
		t.Fatalf("coverage too thin: %d ticks sent, %d with a tied closest boundary distance", sent, ties)
	}
}

// hasBoundaryTie reports whether two of n's non-placeholder neighbors
// share the smallest boundary distance, the case where the j1 scan's
// first-wins rule decides.
func hasBoundaryTie(n *Node, reader proto.MapReader) bool {
	best, count := math.Inf(1), 0
	for _, e := range n.View().Raw() {
		if e.Placeholder() {
			continue
		}
		switch d := n.boundaryDistance(reader, e); {
		case d < best:
			best, count = d, 1
		case d == best:
			count++
		}
	}
	return count > 1
}
