package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testCase couples a distribution with its analytic moments and support
// so one table drives the support, moment and round-trip checks.
type testCase struct {
	name     string
	d        Distribution
	mean     float64
	variance float64
	// inSupport reports whether a sampled value is legal.
	inSupport func(x float64) bool
}

func cases(t *testing.T) []testCase {
	t.Helper()
	mix := Mixture{Components: []Weighted{
		{Weight: 0.7, Dist: Normal{Mean: 10, Stddev: 2}},
		{Weight: 0.3, Dist: Normal{Mean: 50, Stddev: 5}},
	}}
	mixMean := 0.7*10 + 0.3*50
	mixVar := 0.7*(4+100) + 0.3*(25+2500) - mixMean*mixMean
	return []testCase{
		{
			name: "uniform", d: Uniform{Lo: 2, Hi: 6},
			mean: 4, variance: 16.0 / 12,
			inSupport: func(x float64) bool { return x >= 2 && x < 6 },
		},
		{
			// Alpha = 5 keeps the fourth moment finite so the sample
			// variance of 2·10⁵ draws concentrates.
			name: "pareto", d: Pareto{Xm: 1, Alpha: 5},
			mean: 1.25, variance: 5.0 / 48,
			inSupport: func(x float64) bool { return x >= 1 },
		},
		{
			name: "exponential", d: Exponential{Mean: 2},
			mean: 2, variance: 4,
			inSupport: func(x float64) bool { return x >= 0 },
		},
		{
			name: "normal", d: Normal{Mean: 5, Stddev: 2},
			mean: 5, variance: 4,
			inSupport: func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) },
		},
		{
			name: "mixture", d: mix,
			mean: mixMean, variance: mixVar,
			inSupport: func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) },
		},
	}
}

// Samples land in the support, and empirical moments match the analytic
// moments within a CLT-sized tolerance.
func TestSupportAndMoments(t *testing.T) {
	const n = 200000
	for _, tc := range cases(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			sum, sumSq := 0.0, 0.0
			for i := 0; i < n; i++ {
				x := tc.d.Sample(rng)
				if !tc.inSupport(x) {
					t.Fatalf("sample %v outside support", x)
				}
				sum += x
				sumSq += x * x
			}
			mean := sum / n
			variance := sumSq/n - mean*mean
			// 5σ of the sample-mean error, floored for near-zero moments.
			tol := 5*math.Sqrt(tc.variance/n) + 1e-3*math.Abs(tc.mean)
			if math.Abs(mean-tc.mean) > tol {
				t.Errorf("mean = %v, want %v ± %v", mean, tc.mean, tol)
			}
			if math.Abs(variance-tc.variance) > 0.05*tc.variance+1e-9 {
				t.Errorf("variance = %v, want %v ± 5%%", variance, tc.variance)
			}
		})
	}
}

// CDF is a valid distribution function: within [0,1], nondecreasing, 0
// below the support and 1 above it.
func TestCDFShape(t *testing.T) {
	for _, tc := range cases(t) {
		t.Run(tc.name, func(t *testing.T) {
			prev := -1.0
			for p := 0.001; p < 1; p += 0.013 {
				x := tc.d.Quantile(p)
				c := tc.d.CDF(x)
				if c < 0 || c > 1 || math.IsNaN(c) {
					t.Fatalf("CDF(%v) = %v outside [0,1]", x, c)
				}
				if c < prev-1e-12 {
					t.Fatalf("CDF decreasing: CDF(%v) = %v after %v", x, c, prev)
				}
				prev = c
			}
			lo := tc.d.Quantile(0.001) - 1
			if got := tc.d.CDF(lo - 1e6); got > 0.002 {
				t.Errorf("CDF far below support = %v, want ≈ 0", got)
			}
			hi := tc.d.Quantile(0.999)
			if got := tc.d.CDF(hi + 1e6*math.Abs(hi) + 1e6); got < 0.998 {
				t.Errorf("CDF far above support = %v, want ≈ 1", got)
			}
		})
	}
}

// Sampling is a pure function of the rng: equal seeds give equal
// streams (the reproducibility contract the simulator relies on).
func TestDeterminism(t *testing.T) {
	for _, tc := range cases(t) {
		t.Run(tc.name, func(t *testing.T) {
			a := rand.New(rand.NewSource(99))
			b := rand.New(rand.NewSource(99))
			for i := 0; i < 500; i++ {
				if x, y := tc.d.Sample(a), tc.d.Sample(b); x != y {
					t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
				}
			}
		})
	}
}

// Quantile rejects p outside [0,1].
func TestQuantileDomain(t *testing.T) {
	for _, tc := range cases(t) {
		for _, p := range []float64{-0.1, 1.1, math.NaN()} {
			if got := tc.d.Quantile(p); !math.IsNaN(got) {
				t.Errorf("%s: Quantile(%v) = %v, want NaN", tc.name, p, got)
			}
		}
	}
}

// The sampled law matches the analytic CDF: the empirical CDF evaluated
// at analytic quantiles recovers the probability (a fixed-point
// Kolmogorov–Smirnov check).
func TestSampleMatchesCDF(t *testing.T) {
	const n = 100000
	for _, tc := range cases(t) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			samples := make([]float64, n)
			for i := range samples {
				samples[i] = tc.d.Sample(rng)
			}
			for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				q := tc.d.Quantile(p)
				below := 0
				for _, s := range samples {
					if s <= q {
						below++
					}
				}
				got := float64(below) / n
				if math.Abs(got-p) > 0.01 {
					t.Errorf("empirical CDF at Quantile(%v) = %v, want ± 0.01", p, got)
				}
			}
		})
	}
}

// Degenerate point masses honor the Quantile contract at p ∈ {0,1}
// instead of producing 0·∞ = NaN.
func TestPointMassQuantile(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		if got := (Normal{Mean: 5}).Quantile(p); got != 5 {
			t.Errorf("Normal{Mean:5,Stddev:0}.Quantile(%v) = %v, want 5", p, got)
		}
	}
}

// Between two far-apart modes the mixture CDF is flat to far below one
// float ulp: each mode's tail there is under 1e-16, and some under the
// smallest float. Quantile still finds where the two tails balance —
// the exact median of a symmetric pair — not where the lower mode's CDF
// first rounds to 1.
func TestMixtureQuantilePlateau(t *testing.T) {
	pair := func(lo, hi float64) Mixture {
		return Mixture{Components: []Weighted{
			{Weight: 0.5, Dist: Normal{Mean: lo, Stddev: 1}},
			{Weight: 0.5, Dist: Normal{Mean: hi, Stddev: 1}},
		}}
	}
	for _, c := range []struct {
		name string
		m    Mixture
		p    float64
		want float64
	}{
		{"median", pair(10, 90), 0.5, 50},
		{"median-far", pair(0, 1000), 0.5, 500},
		// Off the plateau the lower mode's CDF is 1 to float precision,
		// so the upper mode alone sets the quantile.
		{"upper-mode", pair(10, 90), 0.501, Normal{Mean: 90, Stddev: 1}.Quantile(0.002)},
		// e^−x = Φ(x − 100) and x^−20 = Φ(x − 100), solved offline.
		{"exponential", Mixture{Components: []Weighted{
			{Weight: 1, Dist: Exponential{Mean: 1}}, {Weight: 1, Dist: Normal{Mean: 100, Stddev: 1}},
		}}, 0.5, 87.0704878709099},
		{"pareto", Mixture{Components: []Weighted{
			{Weight: 1, Dist: Pareto{Xm: 1, Alpha: 20}}, {Weight: 1, Dist: Normal{Mean: 100, Stddev: 1}},
		}}, 0.5, 86.90053223044971},
	} {
		if got := c.m.Quantile(c.p); math.Abs(got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("%s: %v.Quantile(%v) = %v, want %v", c.name, c.m, c.p, got, c.want)
		}
	}
}

func TestDegenerateSources(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []Distribution{
		Mixture{},
	} {
		if x := d.Sample(rng); !math.IsNaN(x) {
			t.Errorf("%v: degenerate Sample = %v, want NaN", d, x)
		}
	}
}

func TestStringers(t *testing.T) {
	for _, tc := range cases(t) {
		if s, ok := tc.d.(fmt.Stringer); !ok || s.String() == "" {
			t.Errorf("%s: missing or empty String()", tc.name)
		}
	}
}
