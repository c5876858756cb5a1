package stats

import (
	"errors"
	"math"
)

// Theorem 5.1 parameter errors.
var (
	ErrDistance = errors.New("stats: boundary distance must be positive")
	ErrEstimate = errors.New("stats: rank estimate must lie in [0,1]")
)

// RequiredSamples returns the number of observations k a ranking node
// must receive to estimate its slice exactly with confidence coefficient
// 100(1−α)% (Theorem 5.1):
//
//	k ≥ (Z_{α/2} · √(p̂(1−p̂)) / d)²
//
// where p̂ is the node's current rank estimate and d its distance to the
// nearest slice boundary. The result is rounded up to an integer. A p̂ of
// exactly 0 or 1 needs no samples (the estimator variance is zero).
func RequiredSamples(alpha, pHat, d float64) (int, error) {
	if pHat < 0 || pHat > 1 || math.IsNaN(pHat) {
		return 0, ErrEstimate
	}
	if d <= 0 || math.IsNaN(d) {
		return 0, ErrDistance
	}
	z, err := ZAlphaOver2(alpha)
	if err != nil {
		return 0, err
	}
	s := z * math.Sqrt(pHat*(1-pHat)) / d
	k := math.Ceil(s * s)
	if math.IsInf(k, 0) || k > math.MaxInt32 {
		return math.MaxInt32, nil
	}
	return int(k), nil
}

// SliceConfidence returns the confidence coefficient 1−α with which a
// node having observed k samples and holding rank estimate p̂ at distance
// d from the nearest boundary knows its slice: the inverse of
// RequiredSamples. With zero estimator variance the confidence is 1.
func SliceConfidence(k int, pHat, d float64) (float64, error) {
	if pHat < 0 || pHat > 1 || math.IsNaN(pHat) {
		return math.NaN(), ErrEstimate
	}
	if d <= 0 || math.IsNaN(d) {
		return math.NaN(), ErrDistance
	}
	if k < 1 {
		return 0, nil
	}
	variance := pHat * (1 - pHat)
	if variance == 0 {
		return 1, nil
	}
	z := d * math.Sqrt(float64(k)) / math.Sqrt(variance)
	// Two-sided: confidence = 1 - α where z = Z_{α/2} ⇒ α = 2(1 - Φ(z)).
	return 1 - 2*(1-NormalCDF(z)), nil
}
