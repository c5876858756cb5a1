package stats

import (
	"errors"
	"fmt"
	"math"
)

// Chernoff-bound parameter errors.
var (
	ErrBeta  = errors.New("stats: beta must lie in (0,1]")
	ErrWidth = errors.New("stats: slice width must lie in (0,1]")
	ErrCount = errors.New("stats: population size must be positive")
)

// SliceDeviationBound returns the Chernoff upper bound of Lemma 4.1 on
// the probability that the number X of peers whose uniform random value
// falls in a slice of width p deviates from its mean np by at least a
// factor β:
//
//	Pr[|X − np| ≥ βnp] ≤ 2·exp(−β²np/3)
//
// for β ∈ (0,1], p ∈ (0,1] and population size n ≥ 1.
func SliceDeviationBound(n int, p, beta float64) (float64, error) {
	if n < 1 {
		return math.NaN(), ErrCount
	}
	if beta <= 0 || beta > 1 || math.IsNaN(beta) {
		return math.NaN(), ErrBeta
	}
	if p <= 0 || p > 1 || math.IsNaN(p) {
		return math.NaN(), ErrWidth
	}
	return 2 * math.Exp(-beta*beta*float64(n)*p/3), nil
}

// MinSliceWidth returns the smallest slice width p for which Lemma 4.1
// guarantees that the slice population stays within [(1−β)np, (1+β)np]
// with probability at least 1−ε:
//
//	p ≥ 3/(β²n) · ln(2/ε)
//
// The returned width may exceed 1, meaning no slice of the requested
// precision exists at this population size; the caller decides how to
// react (the paper reads this as "a very large n compensates").
func MinSliceWidth(n int, beta, eps float64) (float64, error) {
	if n < 1 {
		return math.NaN(), ErrCount
	}
	if beta <= 0 || beta > 1 || math.IsNaN(beta) {
		return math.NaN(), ErrBeta
	}
	if eps <= 0 || eps >= 1 || math.IsNaN(eps) {
		return math.NaN(), fmt.Errorf("%w: epsilon %v", ErrProbRange, eps)
	}
	return 3 / (beta * beta * float64(n)) * math.Log(2/eps), nil
}
