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

import "math/rand"

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

// bisectQuantile inverts a monotone cdf by bisection on a bracket
// [lo, hi] with cdf(lo) ≤ p ≤ cdf(hi). It backs sources whose CDF has
// no closed-form inverse (Mixture). 200 halvings exhaust float64
// precision from any finite bracket.
func bisectQuantile(cdf func(float64) float64, p, lo, hi float64) float64 {
	for i := 0; i < 200 && lo < hi; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi { // bracket narrower than one ulp
			break
		}
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
