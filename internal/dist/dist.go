// Package dist provides the attribute-value distributions that drive
// simulations, live clusters and churn patterns. The paper's protocols
// are distribution-free — a node's slice depends only on its attribute
// *rank* — so skewed sources exist to stress that claim and to model
// realistic capability workloads: measurement studies report
// heavy-tailed bandwidth (Pareto) and multi-modal populations
// (Mixture), the scenarios the companion INRIA report
// (arXiv:cs/0612035) motivates.
//
// Every source implements Sample for drawing values, plus analytic CDF
// and Quantile methods so experiments can compare empirical slice
// populations against closed-form expectations: the true attribute
// threshold of a slice boundary b is Quantile(b), and the asymptotic
// normalized rank of a node with attribute x is CDF(x).
package dist

import (
	"math"
	"math/rand"

	"github.com/gossipkit/slicing/internal/stats"
)

// Source draws attribute values. Implementations are small value types
// safe to copy and embed in configuration structs; all randomness comes
// from the caller's rng, so runs are reproducible under a fixed seed.
type Source interface {
	// Sample returns one draw from the distribution.
	Sample(rng *rand.Rand) float64
}

// Distribution extends Source with the analytic shape of the law.
// Every source in this package implements it.
type Distribution interface {
	Source
	// CDF returns P(X ≤ x), the cumulative distribution at x.
	CDF(x float64) float64
	// Quantile returns the smallest x with CDF(x) ≥ p, for p ∈ [0,1].
	// p = 0 yields the infimum of the support and p = 1 its supremum
	// (either may be infinite); p outside [0,1] (or NaN) yields NaN.
	Quantile(p float64) float64
}

// badP reports whether p is outside the quantile domain [0,1].
func badP(p float64) bool { return !(p >= 0 && p <= 1) } // NaN-safe

// bisectQuantile returns the smallest x in the bracket [lo, hi] at
// which below — "the CDF at x is below p", monotone in x — turns false.
// It backs sources whose CDF has no closed-form inverse (Mixture). 200
// halvings exhaust float64 precision from any finite bracket.
func bisectQuantile(below func(float64) bool, lo, hi float64) float64 {
	for i := 0; i < 200 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi { // bracket narrower than one ulp
			break
		}
		if below(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// logTailer is a Distribution that computes both of its tails directly:
// logTails returns log F(x) and log(1 − F(x)), neither derived from the
// other, so the small one keeps its precision where the large one
// rounds to 1, and stays finite where a float tail would underflow.
type logTailer interface {
	logTails(x float64) (lower, upper float64)
}

// logTails returns d's log tails at x, from d itself when it is a
// logTailer and from its CDF otherwise.
func logTails(d Distribution, x float64) (lower, upper float64) {
	if t, ok := d.(logTailer); ok {
		return t.logTails(x)
	}
	c := d.CDF(x)
	return math.Log(c), math.Log1p(-c)
}

// logNormalCDF is log Φ(z). Past z = −37, where Φ(z) nears the
// smallest float, it sums the asymptotic series Φ(z) ≈ φ(z)/|z| ·
// (1 − z⁻² + 3z⁻⁴ − 15z⁻⁶ + 105z⁻⁸), truncated below 1e-12 there.
func logNormalCDF(z float64) float64 {
	switch {
	case z > 0:
		return math.Log1p(-stats.NormalCDF(-z))
	case z > -37:
		return math.Log(stats.NormalCDF(z))
	}
	u := 1 / (z * z)
	series := 1 - u*(1-3*u*(1-5*u*(1-7*u)))
	return -z*z/2 - math.Log(-z) - 0.5*math.Log(2*math.Pi) + math.Log(series)
}

// logAddExp returns log(eᵃ + eᵇ) without overflow or underflow.
func logAddExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(b, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}
