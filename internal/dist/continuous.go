package dist

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/gossipkit/slicing/internal/stats"
)

// Uniform draws uniformly from [Lo, Hi). The zero value is the
// degenerate point mass at 0.
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Source.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// CDF implements Distribution.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x < u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Quantile implements Distribution.
func (u Uniform) Quantile(p float64) float64 {
	if badP(p) {
		return math.NaN()
	}
	return u.Lo + p*(u.Hi-u.Lo)
}

// String implements fmt.Stringer.
func (u Uniform) String() string { return fmt.Sprintf("uniform[%g,%g)", u.Lo, u.Hi) }

// Pareto draws from the heavy-tailed Pareto distribution with scale
// Xm > 0 (the minimum value) and shape Alpha > 0. The mean is infinite
// for Alpha ≤ 1 and the variance for Alpha ≤ 2 — the regime measurement
// studies report for peer capacities.
type Pareto struct {
	Xm, Alpha float64
}

// Sample implements Source.
func (pa Pareto) Sample(rng *rand.Rand) float64 {
	// Inverse transform on u ∈ (0,1]; 1-Float64 avoids u = 0 (→ +Inf).
	return pa.Xm * math.Pow(1-rng.Float64(), -1/pa.Alpha)
}

// CDF implements Distribution.
func (pa Pareto) CDF(x float64) float64 {
	if x < pa.Xm {
		return 0
	}
	return 1 - math.Pow(pa.Xm/x, pa.Alpha)
}

func (pa Pareto) logTails(x float64) (lower, upper float64) {
	if x < pa.Xm {
		return math.Inf(-1), 0
	}
	t := pa.Alpha * math.Log(pa.Xm/x)
	return math.Log(-math.Expm1(t)), t
}

// Quantile implements Distribution.
func (pa Pareto) Quantile(p float64) float64 {
	if badP(p) {
		return math.NaN()
	}
	return pa.Xm * math.Pow(1-p, -1/pa.Alpha)
}

// String implements fmt.Stringer.
func (pa Pareto) String() string { return fmt.Sprintf("pareto(xm=%g,α=%g)", pa.Xm, pa.Alpha) }

// Exponential draws exponentially distributed values with the given
// Mean > 0 (rate 1/Mean).
type Exponential struct {
	Mean float64
}

// Sample implements Source.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return e.Mean * rng.ExpFloat64()
}

// CDF implements Distribution.
func (e Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 - math.Exp(-x/e.Mean)
}

func (e Exponential) logTails(x float64) (lower, upper float64) {
	if x < 0 {
		return math.Inf(-1), 0
	}
	return math.Log(-math.Expm1(-x / e.Mean)), -x / e.Mean
}

// Quantile implements Distribution.
func (e Exponential) Quantile(p float64) float64 {
	if badP(p) {
		return math.NaN()
	}
	return -e.Mean * math.Log1p(-p)
}

// String implements fmt.Stringer.
func (e Exponential) String() string { return fmt.Sprintf("exp(mean=%g)", e.Mean) }

// Normal draws normally distributed values with the given Mean and
// Stddev ≥ 0. Attributes in this codebase may be any real number, so no
// truncation is applied.
type Normal struct {
	Mean, Stddev float64
}

// Sample implements Source.
func (n Normal) Sample(rng *rand.Rand) float64 {
	return n.Mean + n.Stddev*rng.NormFloat64()
}

// CDF implements Distribution.
func (n Normal) CDF(x float64) float64 {
	if n.Stddev == 0 {
		if x < n.Mean {
			return 0
		}
		return 1
	}
	return stats.NormalCDF((x - n.Mean) / n.Stddev)
}

func (n Normal) logTails(x float64) (lower, upper float64) {
	if n.Stddev == 0 {
		if x < n.Mean {
			return math.Inf(-1), 0
		}
		return 0, math.Inf(-1)
	}
	z := (x - n.Mean) / n.Stddev
	return logNormalCDF(z), logNormalCDF(-z)
}

// Quantile implements Distribution.
func (n Normal) Quantile(p float64) float64 {
	if badP(p) {
		return math.NaN()
	}
	if n.Stddev == 0 { // point mass; avoid 0·(±Inf) at p ∈ {0,1}
		return n.Mean
	}
	return n.Mean + n.Stddev*stdNormalQuantile(p)
}

// String implements fmt.Stringer.
func (n Normal) String() string { return fmt.Sprintf("normal(μ=%g,σ=%g)", n.Mean, n.Stddev) }

// stdNormalQuantile extends stats.NormalQuantile to the closed domain:
// Φ⁻¹(0) = −∞ and Φ⁻¹(1) = +∞.
func stdNormalQuantile(p float64) float64 {
	switch p {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	}
	z, err := stats.NormalQuantile(p)
	if err != nil {
		return math.NaN()
	}
	return z
}
