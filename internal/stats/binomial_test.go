package stats

import (
	"errors"
	"math"
	"testing"
)

func TestBinomialPMFSmallCases(t *testing.T) {
	tests := []struct {
		n, k int
		p    float64
		want float64
	}{
		{4, 2, 0.5, 6.0 / 16},
		{1, 0, 0.3, 0.7},
		{1, 1, 0.3, 0.3},
		{10, 0, 0.1, math.Pow(0.9, 10)},
		{3, 5, 0.5, 0}, // k > n
		{3, -1, 0.5, 0},
		{5, 0, 0, 1},
		{5, 5, 1, 1},
		{5, 3, 0, 0},
	}
	for _, tt := range tests {
		if got := BinomialPMF(tt.n, tt.k, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("BinomialPMF(%d,%d,%v) = %v, want %v", tt.n, tt.k, tt.p, got, tt.want)
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 10, 100, 1000} {
		for _, p := range []float64{0.01, 0.3, 0.5, 0.99} {
			total := 0.0
			for k := 0; k <= n; k++ {
				total += BinomialPMF(n, k, p)
			}
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("PMF(n=%d,p=%v) sums to %v", n, p, total)
			}
		}
	}
}

func TestLnBinomialCoeff(t *testing.T) {
	// C(10,3) = 120.
	if got := math.Exp(LnBinomialCoeff(10, 3)); math.Abs(got-120) > 1e-9 {
		t.Errorf("C(10,3) = %v, want 120", got)
	}
	if !math.IsInf(LnBinomialCoeff(5, 9), -1) {
		t.Error("C(5,9) should be -Inf in log space")
	}
}

func TestExactEvenSplitProbability(t *testing.T) {
	// n=2: C(2,1)/4 = 0.5.  n=4: C(4,2)/16 = 0.375.
	tests := []struct {
		n    int
		want float64
	}{
		{2, 0.5},
		{4, 0.375},
		{10, 252.0 / 1024},
	}
	for _, tt := range tests {
		got, err := ExactEvenSplitProbability(tt.n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("ExactEvenSplitProbability(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestExactEvenSplitErrors(t *testing.T) {
	if _, err := ExactEvenSplitProbability(3); !errors.Is(err, ErrOddPopulation) {
		t.Errorf("odd population error = %v", err)
	}
	if _, err := ExactEvenSplitProbability(0); !errors.Is(err, ErrCount) {
		t.Errorf("zero population error = %v", err)
	}
}

// The paper's §4.4 claim: the exact split probability is below √(2/(nπ))
// and converges to it as n grows.
func TestEvenSplitBoundedByAsymptotic(t *testing.T) {
	for _, n := range []int{2, 10, 100, 1000, 10000, 100000} {
		exact, err := ExactEvenSplitProbability(n)
		if err != nil {
			t.Fatal(err)
		}
		asym, err := EvenSplitAsymptotic(n)
		if err != nil {
			t.Fatal(err)
		}
		if exact > asym {
			t.Errorf("n=%d: exact %v exceeds asymptotic bound %v", n, exact, asym)
		}
		if n >= 1000 {
			rel := (asym - exact) / asym
			if rel > 0.01 {
				t.Errorf("n=%d: exact %v not within 1%% of asymptotic %v", n, exact, asym)
			}
		}
	}
}

// The probability of a perfect split is small even for moderate n —
// the paper's motivation for the ranking approach.
func TestEvenSplitSmallForModerateN(t *testing.T) {
	p, err := ExactEvenSplitProbability(10000)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Errorf("even-split probability at n=10⁴ = %v, expected < 1%%", p)
	}
}

func TestBinomialTailMatchesDirectSum(t *testing.T) {
	n, p, beta := 200, 0.3, 0.4
	got, err := BinomialTail(n, p, beta)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(n) * p
	want := 0.0
	for k := 0; k <= n; k++ {
		if math.Abs(float64(k)-mean) >= beta*mean {
			want += BinomialPMF(n, k, p)
		}
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("BinomialTail = %v, want %v", got, want)
	}
}

// The §4.4 table: at every network size from 10 to 100,000 the exact
// probability of a perfect two-way split stays below √(2/(nπ)).
func TestEvenSplitTable(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		exact, err := ExactEvenSplitProbability(n)
		if err != nil {
			t.Fatal(err)
		}
		asym, err := EvenSplitAsymptotic(n)
		if err != nil {
			t.Fatal(err)
		}
		if exact > asym {
			t.Errorf("n=%d: exact %v above the asymptotic bound %v", n, exact, asym)
		}
	}
}
