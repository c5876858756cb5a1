// Ablation benches of the protocol choices and micro-benchmarks of the
// hot paths.
package slicing_test

import (
	"strconv"
	"testing"

	slicing "github.com/gossipkit/slicing"
	"github.com/gossipkit/slicing/internal/churn"
)

// --- Ablations ---

// BenchmarkSelectionPolicies ablates the swap-partner heuristic: random
// misplaced (JK) vs max gain (mod-JK). The final-sdm metric after a
// fixed budget of cycles quantifies the gain heuristic's contribution.
func BenchmarkSelectionPolicies(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy any
	}{
		{"jk-random-misplaced", slicing.JK},
		{"mod-jk-max-gain", slicing.ModJK},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				cfg := slicing.SimConfig{
					N: 300, Slices: 10, ViewSize: 20,
					Protocol: slicing.Ordering,
					AttrDist: slicing.UniformDist{Lo: 0, Hi: 1000},
					Seed:     int64(i + 1),
				}
				switch tc.name {
				case "jk-random-misplaced":
					cfg.Policy = slicing.JK
				default:
					cfg.Policy = slicing.ModJK
				}
				res, err := slicing.Simulate(cfg, 15)
				if err != nil {
					b.Fatal(err)
				}
				if p, ok := res.SDM.Last(); ok {
					final = p.Value
				}
			}
			b.ReportMetric(final, "final-sdm")
		})
	}
}

// BenchmarkViewSize sweeps the gossip view capacity c: larger views find
// misplaced partners (and attribute samples) faster per cycle at a
// higher per-cycle cost.
func BenchmarkViewSize(b *testing.B) {
	for _, c := range []int{5, 10, 20, 40} {
		b.Run(benchName("c", c), func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				res, err := slicing.Simulate(slicing.SimConfig{
					N: 300, Slices: 10, ViewSize: c,
					Protocol: slicing.Ordering, Policy: slicing.ModJK,
					AttrDist: slicing.UniformDist{Lo: 0, Hi: 1000},
					Seed:     int64(i + 1),
				}, 15)
				if err != nil {
					b.Fatal(err)
				}
				if p, ok := res.SDM.Last(); ok {
					final = p.Value
				}
			}
			b.ReportMetric(final, "final-sdm")
		})
	}
}

// BenchmarkWindowSize sweeps the sliding-window size under sustained
// correlated churn: small windows track drift but carry sampling noise;
// large windows are smooth but stale.
func BenchmarkWindowSize(b *testing.B) {
	for _, w := range []int{200, 1000, 5000} {
		b.Run(benchName("w", w), func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				res, err := slicing.Simulate(slicing.SimConfig{
					N: 300, Slices: 10, ViewSize: 10,
					Protocol: slicing.Ranking,
					Estimators: func() slicing.Estimator {
						est, _ := slicing.NewWindowEstimator(w)
						return est
					},
					AttrDist: slicing.UniformDist{Lo: 0, Hi: 1000},
					Schedule: churn.Flat{JoinRate: 0.002, LeaveRate: 0.002, Every: 5},
					Pattern:  churn.Correlated{Spread: 10},
					Seed:     int64(i + 1),
				}, 300)
				if err != nil {
					b.Fatal(err)
				}
				if p, ok := res.SDM.Last(); ok {
					final = p.Value
				}
			}
			b.ReportMetric(final, "final-sdm")
		})
	}
}

// --- Micro-benchmarks ---

// BenchmarkSimulationCycle measures one whole engine cycle (membership +
// protocol + metrics) per protocol at n=1000.
func BenchmarkSimulationCycle(b *testing.B) {
	for _, tc := range []struct {
		name     string
		protocol any
	}{
		{"ordering", nil},
		{"ranking", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := slicing.SimConfig{
				N: 1000, Slices: 10, ViewSize: 20,
				AttrDist: slicing.UniformDist{Lo: 0, Hi: 1000},
				Seed:     1,
			}
			if tc.name == "ordering" {
				cfg.Protocol = slicing.Ordering
				cfg.Policy = slicing.ModJK
			} else {
				cfg.Protocol = slicing.Ranking
			}
			engine, err := slicing.NewSimulation(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.Step()
			}
		})
	}
}

// BenchmarkSDM measures the slice disorder computation on 10⁴ nodes.
func BenchmarkSDM(b *testing.B) {
	part, err := slicing.EqualSlices(100)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]slicing.NodeState, 10000)
	for i := range states {
		states[i] = slicing.NodeState{
			Member:     slicing.Member{ID: slicing.ID(i + 1), Attr: slicing.Attr(i * 7 % 1000)},
			R:          float64(i%97) / 97,
			SliceIndex: i % 100,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slicing.SDM(states, part)
	}
}

// BenchmarkGDM measures the global disorder computation on 10⁴ nodes.
func BenchmarkGDM(b *testing.B) {
	states := make([]slicing.NodeState, 10000)
	for i := range states {
		states[i] = slicing.NodeState{
			Member: slicing.Member{ID: slicing.ID(i + 1), Attr: slicing.Attr(i * 7 % 1000)},
			R:      float64(i%97) / 97,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slicing.GDM(states)
	}
}

// BenchmarkEstimators measures a single estimator observation.
func BenchmarkEstimators(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		est := slicing.NewCounterEstimator()
		for i := 0; i < b.N; i++ {
			est.Observe(i%3 == 0)
		}
	})
	b.Run("window-10k", func(b *testing.B) {
		est, err := slicing.NewWindowEstimator(10000)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			est.Observe(i%3 == 0)
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
