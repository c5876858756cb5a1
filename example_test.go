package slicing_test

import (
	"fmt"
	"time"

	slicing "github.com/gossipkit/slicing"
)

// Simulate a small network with the ranking protocol and read the slice
// disorder at the end — runs are deterministic for a fixed seed.
func ExampleSimulate() {
	res, err := slicing.Simulate(slicing.SimConfig{
		N: 100, Slices: 4, ViewSize: 10,
		Protocol: slicing.Ranking,
		AttrDist: slicing.UniformDist{Lo: 0, Hi: 100},
		Seed:     7,
	}, 60)
	if err != nil {
		fmt.Println(err)
		return
	}
	start, _ := res.SDM.At(0)
	end, _ := res.SDM.Last()
	fmt.Printf("SDM fell: %v\n", end.Value < start)
	fmt.Printf("population: %d\n", res.FinalN)
	// Output:
	// SDM fell: true
	// population: 100
}

// Partitions are adjacent (l,u] intervals covering (0,1].
func ExampleEqualSlices() {
	part, err := slicing.EqualSlices(4)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(part.Slice(0))
	fmt.Println(part.Slice(3))
	fmt.Println(part.Index(0.30))
	// Output:
	// (0,0.25]
	// (0.75,1]
	// 1
}

// CustomSlices builds asymmetric partitions, e.g. a top-20% slice.
func ExampleCustomSlices() {
	part, err := slicing.CustomSlices(0.8)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(part.Len())
	fmt.Println(part.Slice(1))
	// Output:
	// 2
	// (0.8,1]
}

// Theorem 5.1: nodes near a slice boundary need more samples for a
// confident assignment.
func ExampleRequiredSamples() {
	far, _ := slicing.RequiredSamples(0.05, 0.5, 0.2)
	near, _ := slicing.RequiredSamples(0.05, 0.5, 0.02)
	fmt.Printf("far from boundary: %d samples\n", far)
	fmt.Printf("near the boundary: %d samples\n", near)
	// Output:
	// far from boundary: 25 samples
	// near the boundary: 2401 samples
}

// JK swaps with a random misplaced neighbor, mod-JK with the one whose
// swap removes the most local disorder (§4). Both shrink the global
// disorder (GDM) of random values against attributes; mod-JK gets the
// slices right sooner (lower SDM after the same five cycles).
func ExampleSimulate_modJK() {
	run := func(cfg slicing.SimConfig) (sdm float64, gdmFell bool) {
		e, err := slicing.NewSimulation(cfg)
		if err != nil {
			panic(err)
		}
		before := slicing.GDM(e.States())
		e.Run(5)
		last, _ := e.Result().SDM.Last()
		return last.Value, slicing.GDM(e.States()) < before
	}
	cfg := slicing.SimConfig{
		N: 1000, Slices: 10, ViewSize: 20,
		Protocol: slicing.Ordering,
		AttrDist: slicing.UniformDist{Lo: 0, Hi: 1000},
		Seed:     1,
	}
	cfg.Policy = slicing.JK
	jk, jkFell := run(cfg)
	cfg.Policy = slicing.ModJK
	modJK, modFell := run(cfg)
	fmt.Println("GDM fell under both:", jkFell && modFell)
	fmt.Println("mod-JK SDM below JK:", modJK < jk)
	// Output:
	// GDM fell under both: true
	// mod-JK SDM below JK: true
}

// Lemma 4.1: how likely a slice of width p is to hold 10% more or fewer
// nodes than its mean, and the narrowest slice that keeps that chance
// below 1% at N = 10⁴.
func ExampleSliceDeviationBound() {
	bound, _ := slicing.SliceDeviationBound(10000, 0.1, 0.1)
	width, _ := slicing.MinSliceWidth(10000, 0.1, 0.01)
	fmt.Printf("P(|X−μ| ≥ 10%%·μ) ≤ %.3g for p = 0.1\n", bound)
	fmt.Printf("narrowest slice: %.3g\n", width)
	// Output:
	// P(|X−μ| ≥ 10%·μ) ≤ 0.0713 for p = 0.1
	// narrowest slice: 0.159
}

// The attribute laws: the protocols slice by rank, so any law works;
// each one knows its own quantiles.
func ExampleMixtureDist() {
	laws := []struct {
		name string
		q    func(p float64) float64
	}{
		{"uniform", slicing.UniformDist{Lo: 0, Hi: 100}.Quantile},
		{"pareto", slicing.ParetoDist{Xm: 1, Alpha: 2}.Quantile},
		{"exponential", slicing.ExponentialDist{Mean: 10}.Quantile},
		{"normal", slicing.NormalDist{Mean: 50, Stddev: 5}.Quantile},
		{"mixture", slicing.MixtureDist{Components: []slicing.MixtureComponent{
			{Weight: 3, Dist: slicing.NormalDist{Mean: 10, Stddev: 1}},
			{Weight: 1, Dist: slicing.NormalDist{Mean: 90, Stddev: 1}},
		}}.Quantile},
	}
	for _, l := range laws {
		fmt.Printf("%s median %.4g\n", l.name, l.q(0.5))
	}
	// Output:
	// uniform median 50
	// pareto median 1.414
	// exponential median 6.931
	// normal median 50
	// mixture median 10.43
}

// A query plane over a simulation: step the engine, then ask which
// slice an attribute value falls in.
func ExampleNewSimQuerier() {
	part, _ := slicing.EqualSlices(4)
	e, err := slicing.NewSimulation(slicing.SimConfig{
		N: 200, Slices: part.Len(), ViewSize: 10,
		Protocol: slicing.Ranking,
		AttrDist: slicing.UniformDist{Lo: 0, Hi: 100},
		Seed:     9,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	e.Run(60)
	q := slicing.NewSimQuerier(e, slicing.RankingServingCalibration)
	ans, err := q.SliceOf(90) // attribute 90 of a uniform [0, 100) population
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(ans.SliceIx, part.Slice(ans.SliceIx))
	// Output:
	// 3 (0.75,1]
}

// The scenario catalog: every paper figure and extension workload as
// named families of runnable specs.
func ExampleScenarios() {
	for _, sc := range slicing.Scenarios()[:3] {
		fmt.Println(sc.Name, len(sc.Specs))
	}
	// Output:
	// fig4-disorder 1
	// fig4-policies 2
	// fig4-concurrency 4
}

// A live cluster in driven mode: a virtual clock moves only when the
// cluster is advanced, so thirty gossip periods take no wall time. A
// cluster querier then answers from one node's local estimate.
func ExampleNewCluster() {
	part, _ := slicing.EqualSlices(2)
	clock := slicing.NewVirtualClock()
	cluster, err := slicing.NewCluster(slicing.ClusterConfig{
		N: 50, Partition: part, ViewSize: 8,
		Protocol: slicing.Ranking,
		Period:   time.Second,
		// Every node ticks exactly once per Period; a zero JitterFrac
		// would mean DefaultJitterFrac.
		JitterFrac: slicing.JitterNone,
		AttrDist:   slicing.UniformDist{Lo: 0, Hi: 100},
		Clock:      clock,
		Seed:       3,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Stop()
	if err := cluster.Start(); err != nil {
		fmt.Println(err)
		return
	}
	if err := cluster.Advance(30 * time.Second); err != nil {
		fmt.Println(err)
		return
	}
	q, err := slicing.NewClusterQuerier(cluster, slicing.RankingServingCalibration)
	if err != nil {
		fmt.Println(err)
		return
	}
	ans, err := q.SliceOf(95)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("attr 95 is in slice", ans.SliceIx)
	// Output:
	// attr 95 is in slice 1
}
