package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Weighted pairs a component distribution with its mixing weight.
type Weighted struct {
	// Weight is the component's nonnegative mixing mass. Weights need
	// not sum to 1; they are normalized by the total.
	Weight float64
	// Dist is the component law.
	Dist Distribution
}

// Mixture draws from a finite mixture of component laws — the tool for
// multi-modal populations (e.g. a bimodal fleet of weak consumer peers
// and strong datacenter peers). A Mixture with no components is
// degenerate: Sample and CDF return NaN.
type Mixture struct {
	Components []Weighted
}

// weightTotal returns the sum of component weights.
func (m Mixture) weightTotal() float64 {
	t := 0.0
	for _, c := range m.Components {
		t += c.Weight
	}
	return t
}

// Sample implements Source: it picks a component with probability
// proportional to its weight, then samples it.
func (m Mixture) Sample(rng *rand.Rand) float64 {
	t := m.weightTotal()
	if len(m.Components) == 0 || t <= 0 {
		return math.NaN()
	}
	u := rng.Float64() * t
	cum := 0.0
	for _, c := range m.Components[:len(m.Components)-1] {
		cum += c.Weight
		if u < cum {
			return c.Dist.Sample(rng)
		}
	}
	return m.Components[len(m.Components)-1].Dist.Sample(rng)
}

// CDF implements Distribution: the weighted sum of component CDFs.
func (m Mixture) CDF(x float64) float64 {
	t := m.weightTotal()
	if len(m.Components) == 0 || t <= 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, c := range m.Components {
		sum += c.Weight * c.Dist.CDF(x)
	}
	return sum / t
}

// Quantile implements Distribution by bisecting the mixture CDF (see
// below). The bracket is exact: for each component F_i(Q_i(p)) ≥ p and
// F_i is nondecreasing, so the mixture quantile lies between the
// smallest and largest component quantiles at p.
func (m Mixture) Quantile(p float64) float64 {
	if badP(p) {
		return math.NaN()
	}
	t := m.weightTotal()
	if len(m.Components) == 0 || t <= 0 {
		return math.NaN()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.Components {
		q := c.Dist.Quantile(p)
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return math.NaN()
	}
	if lo == hi || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		// A single attained value, or an unbounded bracket (p at 0 or 1
		// with unbounded support): the extreme quantile itself.
		if p == 0 {
			return lo
		}
		return hi
	}
	return bisectQuantile(func(x float64) bool { return m.below(x, p) }, lo, hi)
}

// below reports whether the mixture CDF at x is below p, as the sign of
// Σwᵢ(Fᵢ(x) − p) taken without cancellation. A component below its
// median contributes wᵢFᵢ(x) − wᵢp, one past it wᵢ(1 − p) − wᵢSᵢ(x)
// with Sᵢ = 1 − Fᵢ its upper tail, so no term is a CDF rounded to 1.
// The p terms sum to d; where they cancel exactly — between
// well-separated modes, where the CDF is flat to far below one float
// ulp — the two tail sums decide alone, compared in log form.
func (m Mixture) below(x, p float64) bool {
	d := 0.0
	lower, upper := math.Inf(-1), math.Inf(-1) // log Σ wᵢFᵢ, log Σ wᵢSᵢ
	for _, c := range m.Components {
		lf, ls := logTails(c.Dist, x)
		lw := math.Log(c.Weight)
		if lf < -math.Ln2 {
			d -= c.Weight * p
			lower = logAddExp(lower, lw+lf)
		} else {
			d += c.Weight * (1 - p)
			upper = logAddExp(upper, lw+ls)
		}
	}
	if d != 0 {
		return d+math.Exp(lower)-math.Exp(upper) < 0
	}
	return lower < upper
}

// String implements fmt.Stringer.
func (m Mixture) String() string {
	parts := make([]string, len(m.Components))
	for i, c := range m.Components {
		parts[i] = fmt.Sprintf("%g·%v", c.Weight, c.Dist)
	}
	return "mix(" + strings.Join(parts, " + ") + ")"
}
