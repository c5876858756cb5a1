package sim

import (
	"math"
	"math/bits"
	"testing"

	"github.com/gossipkit/slicing/internal/core"
)

// Streams must be pure functions of (seed, id, cycle, phase): the same
// derivation replays identically, and changing any input decorrelates
// the draws.
func TestStreamDeterministicAndDistinct(t *testing.T) {
	a := nodeStream(7, 42, 3, phaseMembership)
	b := nodeStream(7, 42, 3, phaseMembership)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("identical derivations diverge at draw %d: %x vs %x", i, x, y)
		}
	}
	base := nodeStream(7, 42, 3, phaseMembership)
	variants := map[string]core.Stream{
		"seed":  nodeStream(8, 42, 3, phaseMembership),
		"id":    nodeStream(7, 43, 3, phaseMembership),
		"cycle": nodeStream(7, 42, 4, phaseMembership),
		"phase": nodeStream(7, 42, 3, phaseProtocol),
	}
	b0 := base.Uint64()
	for name, v := range variants {
		if v.Uint64() == b0 {
			t.Errorf("changing %s did not change the first draw", name)
		}
	}
}

// Adjacent node IDs and cycles must yield decorrelated streams: the
// fraction of equal bits between neighboring streams' draws stays near
// 1/2 (a weak but effective counter-mix regression check).
func TestStreamNeighborDecorrelation(t *testing.T) {
	const draws = 10_000
	check := func(name string, a, b core.Stream) {
		t.Helper()
		equal := 0
		for i := 0; i < draws; i++ {
			x := a.Uint64() ^ b.Uint64()
			equal += 64 - bits.OnesCount64(x)
		}
		f := float64(equal) / float64(64*draws)
		if math.Abs(f-0.5) > 0.01 {
			t.Errorf("%s: equal-bit fraction %v, want ≈ 0.5", name, f)
		}
	}
	check("adjacent ids", nodeStream(1, 100, 5, phaseProtocol), nodeStream(1, 101, 5, phaseProtocol))
	check("adjacent cycles", nodeStream(1, 100, 5, phaseProtocol), nodeStream(1, 100, 6, phaseProtocol))
	check("adjacent seeds", nodeStream(1, 100, 5, phaseProtocol), nodeStream(2, 100, 5, phaseProtocol))
}
