package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomContinuous builds a continuous distribution with random but
// sane parameters from the seed's rng.
func randomContinuous(rng *rand.Rand) Distribution {
	switch rng.Intn(5) {
	case 0:
		lo := rng.NormFloat64() * 100
		return Uniform{Lo: lo, Hi: lo + 1e-3 + rng.Float64()*100}
	case 1:
		return Pareto{Xm: 0.1 + rng.Float64()*10, Alpha: 0.5 + rng.Float64()*4}
	case 2:
		return Exponential{Mean: 0.1 + rng.Float64()*50}
	case 3:
		return Normal{Mean: rng.NormFloat64() * 100, Stddev: 0.1 + rng.Float64()*20}
	default:
		m1 := rng.NormFloat64() * 10
		return Mixture{Components: []Weighted{
			{Weight: 0.1 + rng.Float64(), Dist: Normal{Mean: m1, Stddev: 0.5 + rng.Float64()*3}},
			{Weight: 0.1 + rng.Float64(), Dist: Normal{Mean: m1 + 5 + rng.Float64()*50, Stddev: 0.5 + rng.Float64()*3}},
		}}
	}
}

// Property: Quantile inverts CDF — Quantile(CDF(x)) ≈ x at sampled
// points, and CDF(Quantile(p)) ≈ p across the unit interval.
func TestQuantileCDFRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomContinuous(rng)
		for i := 0; i < 20; i++ {
			x := d.Sample(rng)
			back := d.Quantile(d.CDF(x))
			if math.Abs(back-x) > 1e-6*(1+math.Abs(x)) {
				t.Logf("%v: Quantile(CDF(%v)) = %v", d, x, back)
				return false
			}
			p := rng.Float64()
			if got := d.CDF(d.Quantile(p)); math.Abs(got-p) > 1e-9 {
				t.Logf("%v: CDF(Quantile(%v)) = %v", d, p, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the quantile function is nondecreasing in p.
func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomContinuous(rng)
		p1, p2 := rng.Float64(), rng.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, q2 := d.Quantile(p1), d.Quantile(p2)
		if q1 > q2+1e-9*(1+math.Abs(q2)) {
			t.Logf("%v: Quantile(%v) = %v > Quantile(%v) = %v", d, p1, q1, p2, q2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
