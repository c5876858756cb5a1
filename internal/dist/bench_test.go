package dist

import (
	"math/rand"
	"testing"
)

// Sampling sits on the simulator's node-creation and churn-join paths,
// so its cost caps how fast large churny populations can be built.
func BenchmarkSample(b *testing.B) {
	for _, bc := range []struct {
		name string
		d    Source
	}{
		{"uniform", Uniform{Lo: 0, Hi: 1000}},
		{"pareto", Pareto{Xm: 10, Alpha: 1.5}},
		{"exponential", Exponential{Mean: 3600}},
		{"normal", Normal{Mean: 500, Stddev: 50}},
		{"mixture-2", Mixture{Components: []Weighted{
			{Weight: 0.5, Dist: Normal{Mean: 50, Stddev: 5}},
			{Weight: 0.5, Dist: Normal{Mean: 500, Stddev: 20}},
		}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink += bc.d.Sample(rng)
			}
			_ = sink
		})
	}
}

// Quantile backs the analytic-vs-simulated experiment comparisons; the
// mixture variant exercises the bisection path.
func BenchmarkQuantile(b *testing.B) {
	for _, bc := range []struct {
		name string
		d    Distribution
	}{
		{"pareto", Pareto{Xm: 10, Alpha: 1.5}},
		{"normal", Normal{Mean: 500, Stddev: 50}},
		{"mixture-2", Mixture{Components: []Weighted{
			{Weight: 0.5, Dist: Normal{Mean: 50, Stddev: 5}},
			{Weight: 0.5, Dist: Normal{Mean: 500, Stddev: 20}},
		}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink += bc.d.Quantile(float64(i%999+1) / 1000)
			}
			_ = sink
		})
	}
}
