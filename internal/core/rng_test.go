package core

import (
	"math"
	"math/bits"
	"testing"
)

// A node's stream is a pure function of (seed, id): the same derivation
// replays identically, and changing either input changes the draws.
func TestNodeStreamDeterministicAndDistinct(t *testing.T) {
	a, b := NodeStream(7, 42), NodeStream(7, 42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("identical derivations diverge at draw %d: %x vs %x", i, x, y)
		}
	}
	base := NodeStream(7, 42)
	b0 := base.Uint64()
	for name, v := range map[string]Stream{"seed": NodeStream(8, 42), "id": NodeStream(7, 43)} {
		if v.Uint64() == b0 {
			t.Errorf("changing %s did not change the first draw", name)
		}
	}
}

// Regression: seeding node i of run s with s+i made (seed s, node i+1)
// and (seed s+1, node i) one and the same stream, so sweeps over
// adjacent seeds were correlated.
func TestNodeStreamAdjacentSeedsDoNotAlias(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for id := uint64(1); id < 50; id++ {
			a, b := NodeStream(seed, id+1), NodeStream(seed+1, id)
			if a.Uint64() == b.Uint64() {
				t.Fatalf("(seed %d, node %d) and (seed %d, node %d) share a first draw", seed, id+1, seed+1, id)
			}
		}
	}
}

func TestStreamIntnBoundsAndPanic(t *testing.T) {
	s := NodeStream(1, 1)
	for _, n := range []int{1, 2, 3, 7, 1000, math.MaxInt} { // MaxInt: the widest bound on 32- and 64-bit ints alike
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

// Uniformity smoke: mean of Float64 near 1/2, mean of Intn(k) near
// (k-1)/2, and single-bit frequencies near 1/2 — catching gross mixing
// mistakes in the stream derivation, not certifying the generator.
func TestStreamUniformitySmoke(t *testing.T) {
	const draws = 200_000
	s := NodeStream(123, 9)
	sumF := 0.0
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sumF += f
	}
	if mean := sumF / draws; math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ≈ 0.5", mean)
	}
	const k = 10
	sumI := 0
	for i := 0; i < draws; i++ {
		sumI += s.Intn(k)
	}
	if mean := float64(sumI) / draws; math.Abs(mean-float64(k-1)/2) > 0.05 {
		t.Errorf("Intn(%d) mean = %v, want ≈ %v", k, mean, float64(k-1)/2)
	}
	var ones [64]int
	for i := 0; i < draws; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			ones[b] += int(v >> b & 1)
		}
	}
	for b, c := range ones {
		if f := float64(c) / draws; math.Abs(f-0.5) > 0.01 {
			t.Errorf("bit %d frequency = %v, want ≈ 0.5", b, f)
		}
	}
}

// Adjacent node IDs and seeds must yield decorrelated streams: the
// fraction of equal bits between neighboring streams' draws stays near
// 1/2.
func TestNodeStreamNeighborDecorrelation(t *testing.T) {
	const draws = 10_000
	check := func(name string, a, b Stream) {
		t.Helper()
		equal := 0
		for i := 0; i < draws; i++ {
			equal += 64 - bits.OnesCount64(a.Uint64()^b.Uint64())
		}
		if f := float64(equal) / float64(64*draws); math.Abs(f-0.5) > 0.01 {
			t.Errorf("%s: equal-bit fraction %v, want ≈ 0.5", name, f)
		}
	}
	check("adjacent ids", NodeStream(1, 100), NodeStream(1, 101))
	check("adjacent seeds", NodeStream(1, 100), NodeStream(2, 100))
}
