package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSliceDeviationBoundValues(t *testing.T) {
	// 2·exp(−β²np/3) with n=10000, p=0.01 (the paper's 100-slice setup),
	// β=0.5: 2·exp(−0.25·100/3) ≈ 2·exp(−8.33).
	got, err := SliceDeviationBound(10000, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Exp(-0.25*100/3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("SliceDeviationBound = %v, want %v", got, want)
	}
}

func TestSliceDeviationBoundErrors(t *testing.T) {
	cases := []struct {
		n       int
		p, beta float64
		wantErr error
	}{
		{0, 0.5, 0.5, ErrCount},
		{10, 0, 0.5, ErrWidth},
		{10, 1.5, 0.5, ErrWidth},
		{10, 0.5, 0, ErrBeta},
		{10, 0.5, 1.5, ErrBeta},
	}
	for _, c := range cases {
		if _, err := SliceDeviationBound(c.n, c.p, c.beta); !errors.Is(err, c.wantErr) {
			t.Errorf("SliceDeviationBound(%d,%v,%v) error = %v, want %v", c.n, c.p, c.beta, err, c.wantErr)
		}
	}
}

func TestMinSliceWidthFormula(t *testing.T) {
	// p ≥ 3/(β²n)·ln(2/ε)
	got, err := MinSliceWidth(10000, 0.1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := 3.0 / (0.01 * 10000) * math.Log(200)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("MinSliceWidth = %v, want %v", got, want)
	}
}

// Property: the bound at the minimal width is at most ε (the lemma's
// guarantee is tight there by construction).
func TestMinSliceWidthAchievesEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := 100 + rng.Intn(100000)
		beta := 0.05 + 0.95*rng.Float64()
		eps := 0.001 + 0.5*rng.Float64()
		p, err := MinSliceWidth(n, beta, eps)
		if err != nil {
			t.Fatal(err)
		}
		if p > 1 {
			continue // no feasible slice at this n; nothing to verify
		}
		bound, err := SliceDeviationBound(n, p, beta)
		if err != nil {
			t.Fatal(err)
		}
		if bound > eps+1e-9 {
			t.Fatalf("n=%d β=%v ε=%v: width %v gives bound %v > ε", n, beta, eps, p, bound)
		}
	}
}

// The Chernoff bound must actually bound the exact binomial tail
// (Lemma 4.1 checked against ground truth).
func TestChernoffBoundsExactTail(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		beta float64
	}{
		{100, 0.2, 0.5},
		{1000, 0.01, 0.9},
		{5000, 0.1, 0.3},
		{10000, 0.01, 0.5},
	}
	for _, c := range cases {
		exact, err := BinomialTail(c.n, c.p, c.beta)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := SliceDeviationBound(c.n, c.p, c.beta)
		if err != nil {
			t.Fatal(err)
		}
		if exact > bound+1e-9 {
			t.Errorf("n=%d p=%v β=%v: exact tail %v exceeds Chernoff bound %v",
				c.n, c.p, c.beta, exact, bound)
		}
	}
}

// Monte-Carlo check: empirical deviation frequency respects the bound.
func TestChernoffBoundEmpirical(t *testing.T) {
	const (
		n      = 2000
		p      = 0.05
		beta   = 0.5
		trials = 2000
	)
	rng := rand.New(rand.NewSource(99))
	mean := float64(n) * p
	exceed := 0
	for trial := 0; trial < trials; trial++ {
		x := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				x++
			}
		}
		if math.Abs(float64(x)-mean) >= beta*mean {
			exceed++
		}
	}
	bound, err := SliceDeviationBound(n, p, beta)
	if err != nil {
		t.Fatal(err)
	}
	freq := float64(exceed) / trials
	// Allow generous sampling slack: 3σ of the trial estimate.
	slack := 3 * math.Sqrt(bound*(1-bound)/trials)
	if freq > bound+slack+0.01 {
		t.Errorf("empirical deviation frequency %v exceeds Chernoff bound %v", freq, bound)
	}
}

// Lemma 4.1 as a table: on every (slice width, β) row of the paper's
// setup the Chernoff bound is at least the exact binomial tail.
func TestLemma41Table(t *testing.T) {
	const n = 500
	for _, p := range []float64{0.01, 0.05, 0.1} {
		for _, beta := range []float64{0.25, 0.5} {
			bound, err := SliceDeviationBound(n, p, beta)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := BinomialTail(n, p, beta)
			if err != nil {
				t.Fatal(err)
			}
			if exact > bound+1e-9 {
				t.Errorf("p=%v β=%v: exact tail %v exceeds Chernoff bound %v", p, beta, exact, bound)
			}
		}
	}
}
