package sim

import (
	"fmt"
	"testing"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
)

// benchStep measures the steady-state cost of one simulation cycle: the
// engine is warmed up first so view bootstrap and slice growth are off
// the clock, then each iteration advances exactly one cycle.
func benchStep(b *testing.B, cfg Config) {
	b.Helper()
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e.Run(5) // warm-up: views filled, buffers at steady-state size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkStepOrdering(b *testing.B) {
	benchStep(b, Config{
		N: 2000, Slices: 10, ViewSize: 20,
		Protocol: proto.Ordering, Policy: ordering.SelectMaxGain,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1,
	})
}

func BenchmarkStepOrderingConcurrent(b *testing.B) {
	benchStep(b, Config{
		N: 2000, Slices: 10, ViewSize: 20,
		Protocol: proto.Ordering, Policy: ordering.SelectMaxGain,
		Concurrency: 1,
		AttrDist:    dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1,
	})
}

func BenchmarkStepRanking(b *testing.B) {
	benchStep(b, Config{
		N: 2000, Slices: 10, ViewSize: 20,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1,
	})
}

func BenchmarkStepRankingChurn(b *testing.B) {
	benchStep(b, Config{
		N: 2000, Slices: 10, ViewSize: 20,
		Protocol: proto.Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1,
		Schedule: churn.Flat{JoinRate: 0.001, LeaveRate: 0.001},
		Pattern:  churn.Correlated{Spread: 10},
	})
}

// BenchmarkEngineScaling is the N-scaling table of the engine core:
// steady-state cycle cost for both protocols, static and under
// 0.1%/cycle flat churn, from N=1k to N=100k, and — at the two larger
// sizes — across compute-worker counts (the parallel cycle rounds).
// The ordering/churn/n=10000 row at workers=1 is the acceptance
// benchmark of the arena refactor (PR 2's map engine: ~123 ms/cycle;
// arena core: ~32 ms/cycle); the workers=1 vs workers=8 rows at
// n=100000 are the acceptance benchmark of the parallel engine —
// results are bit-identical across the workers dimension, so the rows
// measure pure throughput scaling. The scale-* scenario family
// exercises the same workloads through slicebench (-simworkers).
//
// The n=1000000 rows are the million-node acceptance tier of the
// struct-of-arrays engine: ~1.3 GB of engine state per run, so they are
// skipped under -short (and each row costs seconds per iteration — use
// -benchtime 2x or so).
func BenchmarkEngineScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000, 1_000_000} {
		if n >= 1_000_000 && testing.Short() {
			continue
		}
		for _, workers := range []int{1, 4, 8} {
			if workers > 1 && n < 10000 {
				// Parallel rounds are for big arenas; keep the table small.
				continue
			}
			for _, kind := range []proto.Kind{proto.Ordering, proto.Ranking} {
				for _, churned := range []bool{false, true} {
					cfg := Config{
						N: n, Slices: 100, ViewSize: 20,
						Protocol: kind, Workers: workers,
						AttrDist: dist.Uniform{Lo: 0, Hi: 1000}, Seed: 1,
					}
					if kind == proto.Ordering {
						cfg.Policy = ordering.SelectMaxGain
					}
					label := "static"
					if churned {
						label = "churn"
						cfg.Schedule = churn.Flat{JoinRate: 0.001, LeaveRate: 0.001}
						cfg.Pattern = churn.Uniform{Dist: cfg.AttrDist}
					}
					b.Run(fmt.Sprintf("%s/%s/n=%d/workers=%d", kind, label, n, workers), func(b *testing.B) {
						benchStep(b, cfg)
					})
				}
			}
		}
	}
}
