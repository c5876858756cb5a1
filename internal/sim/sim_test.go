package sim

import (
	"errors"
	"testing"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/ordering"
)

func baseOrderingConfig() Config {
	return Config{
		N: 200, Slices: 10, ViewSize: 15,
		Protocol: Ordering, Policy: ordering.SelectMaxGain,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000},
		Seed:     1,
	}
}

func baseRankingConfig() Config {
	return Config{
		N: 200, Slices: 10, ViewSize: 15,
		Protocol: Ranking,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000},
		Seed:     1,
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr error
	}{
		{"zero n", func(c *Config) { c.N = 0 }, ErrConfigN},
		{"zero view", func(c *Config) { c.ViewSize = 0 }, ErrConfigView},
		{"nil dist", func(c *Config) { c.AttrDist = nil }, ErrConfigDist},
		{"bad protocol", func(c *Config) { c.Protocol = 0 }, ErrConfigProtocol},
		{"negative concurrency", func(c *Config) { c.Concurrency = -0.5 }, ErrConfigConc},
		{"excess concurrency", func(c *Config) { c.Concurrency = 1.5 }, ErrConfigConc},
		{"no slices", func(c *Config) { c.Slices = 0 }, core.ErrNoSlices},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseOrderingConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, tt.wantErr) {
				t.Errorf("New error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestWindowEstimatorNeedsSize(t *testing.T) {
	cfg := baseRankingConfig()
	cfg.Estimator = WindowEstimator
	if _, err := New(cfg); err == nil {
		t.Error("WindowEstimator without WindowSize should fail")
	}
	cfg.WindowSize = 100
	if _, err := New(cfg); err != nil {
		t.Errorf("WindowEstimator with size failed: %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, cfg := range []Config{baseOrderingConfig(), baseRankingConfig()} {
		a, err := Run(cfg, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, 30)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.SDM.Points) != len(b.SDM.Points) {
			t.Fatalf("series lengths differ: %d vs %d", len(a.SDM.Points), len(b.SDM.Points))
		}
		for i := range a.SDM.Points {
			if a.SDM.Points[i] != b.SDM.Points[i] {
				t.Fatalf("%v: runs diverge at point %d: %+v vs %+v",
					cfg.Protocol, i, a.SDM.Points[i], b.SDM.Points[i])
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := baseOrderingConfig()
	a, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.SDM.Points {
		if a.SDM.Points[i] != b.SDM.Points[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical SDM series")
	}
}

// The ordering protocol must sort the random values completely: GDM → 0
// (mod-JK, static system). SDM settles at the floor imposed by the
// uneven random draw (§4.4) — it does not reach 0.
func TestOrderingReachesTotalOrder(t *testing.T) {
	cfg := baseOrderingConfig()
	cfg.RecordGDM = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	gdm, ok := e.GDM().Last()
	if !ok {
		t.Fatal("no GDM recorded")
	}
	if gdm.Value != 0 {
		t.Errorf("GDM after 300 cycles = %v, want 0 (perfect order)", gdm.Value)
	}
	sdmStart, _ := e.SDM().At(0)
	sdmEnd, _ := e.SDM().Last()
	if sdmEnd.Value >= sdmStart {
		t.Errorf("SDM did not decrease: %v → %v", sdmStart, sdmEnd.Value)
	}
	if sdmEnd.Value == 0 {
		t.Log("SDM reached exactly 0: unusually even random draw (not an error)")
	}
}

// mod-JK must dominate JK in convergence speed (Fig. 4(b)): lower or
// equal SDM at an early-run checkpoint, aggregated over seeds. The
// checkpoint sits in the active convergence window: the parallel
// engine's synchronized rounds reach the common SDM floor within ~10
// cycles at this scale, after which the policies are indistinguishable
// by construction (same random-value multiset, same floor).
func TestModJKConvergesFasterThanJK(t *testing.T) {
	const checkpoint = 5
	var jkTotal, modTotal float64
	for seed := int64(1); seed <= 3; seed++ {
		cfg := baseOrderingConfig()
		cfg.Seed = seed
		cfg.Policy = ordering.SelectRandomMisplaced
		jk, err := Run(cfg, checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = ordering.SelectMaxGain
		mod, err := Run(cfg, checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := jk.SDM.Last()
		ma, _ := mod.SDM.Last()
		jkTotal += ja.Value
		modTotal += ma.Value
	}
	if modTotal > jkTotal {
		t.Errorf("mod-JK SDM sum %v > JK %v at cycle %d", modTotal, jkTotal, checkpoint)
	}
}

// Identical random-value multisets converge to identical SDM floors
// (the paper: "since they both used an identical set of randomly
// generated values, both converge to the same SDM").
func TestJKAndModJKShareSDMFloor(t *testing.T) {
	run := func(policy ordering.Policy) float64 {
		cfg := baseOrderingConfig()
		cfg.N = 100
		cfg.Policy = policy
		res, err := Run(cfg, 400)
		if err != nil {
			t.Fatal(err)
		}
		last, _ := res.SDM.Last()
		return last.Value
	}
	jk := run(ordering.SelectRandomMisplaced)
	mod := run(ordering.SelectMaxGain)
	// Same seed → same initial random values → same floor once both are
	// fully sorted.
	if jk != mod {
		t.Errorf("SDM floors differ: JK %v vs mod-JK %v", jk, mod)
	}
}

func TestNoUnsuccessfulSwapsWithoutConcurrency(t *testing.T) {
	cfg := baseOrderingConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	st := e.OrderingStats()
	if st.SwapFailedAtReceiver != 0 {
		t.Errorf("atomic cycles produced %d receiver-side failures", st.SwapFailedAtReceiver)
	}
	if st.ReqReceived == 0 {
		t.Error("no swap requests exchanged at all")
	}
}

// Full concurrency must produce unsuccessful swaps (Fig. 4(c)) yet only
// slightly slow convergence (Fig. 4(d)).
func TestConcurrencyProducesUnsuccessfulSwaps(t *testing.T) {
	cfg := baseOrderingConfig()
	cfg.Concurrency = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	st := e.OrderingStats()
	if st.SwapFailedAtReceiver == 0 {
		t.Error("full concurrency produced no unsuccessful swaps")
	}
	sdmEnd, _ := e.SDM().Last()
	sdmStart, _ := e.SDM().At(0)
	if sdmEnd.Value >= sdmStart {
		t.Errorf("no convergence under full concurrency: %v → %v", sdmStart, sdmEnd.Value)
	}
}

func TestHalfConcurrencyFailsLessThanFull(t *testing.T) {
	failures := func(conc float64) uint64 {
		cfg := baseOrderingConfig()
		cfg.Concurrency = conc
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(30)
		return e.OrderingStats().SwapFailedAtReceiver
	}
	half := failures(0.5)
	full := failures(1)
	if half >= full {
		t.Errorf("half-concurrency failures %d ≥ full-concurrency %d", half, full)
	}
}

// The ranking protocol's SDM must keep decreasing and end below the
// ordering protocol's floor (Fig. 6(a)).
func TestRankingBeatsOrderingFloor(t *testing.T) {
	ordCfg := baseOrderingConfig()
	ord, err := Run(ordCfg, 400)
	if err != nil {
		t.Fatal(err)
	}
	rankCfg := baseRankingConfig()
	rank, err := Run(rankCfg, 400)
	if err != nil {
		t.Fatal(err)
	}
	ordEnd, _ := ord.SDM.Last()
	rankEnd, _ := rank.SDM.Last()
	if rankEnd.Value >= ordEnd.Value {
		t.Errorf("ranking SDM %v not below ordering floor %v after 400 cycles",
			rankEnd.Value, ordEnd.Value)
	}
}

// Ranking over the Cyclon variant must track ranking over the uniform
// oracle closely (Fig. 6(b)).
func TestRankingCyclonTracksUniformOracle(t *testing.T) {
	run := func(mk MembershipKind) float64 {
		cfg := baseRankingConfig()
		cfg.Membership = mk
		res, err := Run(cfg, 200)
		if err != nil {
			t.Fatal(err)
		}
		// Average the tail of the series: at this small scale the SDM
		// bounces between a handful of boundary nodes, so single-cycle
		// values are noisy.
		sum, count := 0.0, 0
		for _, p := range res.SDM.Points {
			if p.Cycle > 150 {
				sum += p.Value
				count++
			}
		}
		return sum / float64(count)
	}
	cyclon := run(CyclonViews)
	oracle := run(UniformOracle)
	// The paper reports the two curves within ±7% at n=10⁴; allow a
	// factor 3 band on tail averages at n=200.
	lo, hi := oracle/3, oracle*3
	if cyclon < lo || cyclon > hi {
		t.Errorf("cyclon-based SDM %v not comparable to oracle-based %v", cyclon, oracle)
	}
}

func TestChurnKeepsPopulationConstant(t *testing.T) {
	cfg := baseRankingConfig()
	cfg.Schedule = churn.Burst{Rate: 0.01, Until: 20}
	cfg.Pattern = churn.Correlated{Spread: 10}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(30)
	if e.N() != cfg.N {
		t.Errorf("population after equal join/leave churn = %d, want %d", e.N(), cfg.N)
	}
}

// Correlated churn then recovery (Fig. 6(c)): after the burst stops, the
// ranking algorithm's SDM resumes decreasing; the ordering algorithm
// stays stuck. Compare SDM at the end of a long run.
func TestCorrelatedChurnRankingRecoversOrderingStuck(t *testing.T) {
	const cycles = 400
	schedule := churn.Burst{Rate: 0.002, Until: 100}
	pattern := churn.Correlated{Spread: 10}

	ordCfg := baseOrderingConfig()
	ordCfg.Schedule, ordCfg.Pattern = schedule, pattern
	ord, err := Run(ordCfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	rankCfg := baseRankingConfig()
	rankCfg.Schedule, rankCfg.Pattern = schedule, pattern
	rank, err := Run(rankCfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	ordEnd, _ := ord.SDM.Last()
	rankEnd, _ := rank.SDM.Last()
	if rankEnd.Value >= ordEnd.Value {
		t.Errorf("after correlated churn: ranking SDM %v not below ordering %v",
			rankEnd.Value, ordEnd.Value)
	}
	// Ranking must actually recover: its SDM at the end is below its SDM
	// right when churn stopped.
	atStop, ok := rank.SDM.At(100)
	if !ok {
		t.Fatal("no SDM sample at churn stop")
	}
	if rankEnd.Value >= atStop {
		t.Errorf("ranking did not recover after churn: %v at stop, %v at end", atStop, rankEnd.Value)
	}
}

// Sliding-window ranking must outlast counter-based ranking under
// sustained correlated churn (Fig. 6(d)).
func TestSlidingWindowResistsSustainedChurn(t *testing.T) {
	const cycles = 600
	schedule := churn.Periodic{Rate: 0.002, Every: 5}
	pattern := churn.Correlated{Spread: 10}

	counterCfg := baseRankingConfig()
	counterCfg.Schedule, counterCfg.Pattern = schedule, pattern
	counter, err := Run(counterCfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	windowCfg := baseRankingConfig()
	windowCfg.Schedule, windowCfg.Pattern = schedule, pattern
	windowCfg.Estimator = WindowEstimator
	windowCfg.WindowSize = 2000
	window, err := Run(windowCfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	cEnd, _ := counter.SDM.Last()
	wEnd, _ := window.SDM.Last()
	if wEnd.Value >= cEnd.Value {
		t.Errorf("sliding window SDM %v not below counter SDM %v under sustained churn",
			wEnd.Value, cEnd.Value)
	}
}

func TestMessagesAreCounted(t *testing.T) {
	cfg := baseRankingConfig()
	res, err := Run(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages.RankUpdates == 0 {
		t.Error("no rank updates delivered")
	}
	if res.Messages.ViewRequests == 0 || res.Messages.ViewReplies == 0 {
		t.Error("no membership traffic delivered")
	}
	if res.Messages.SwapRequests != 0 {
		t.Error("ranking run delivered swap messages")
	}
}

func TestChurnDropsMessagesToDeparted(t *testing.T) {
	cfg := baseRankingConfig()
	cfg.Schedule = churn.Burst{Rate: 0.05, Until: 10}
	cfg.Pattern = churn.Correlated{Spread: 10}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(15)
	if e.Delivered.Dropped == 0 {
		t.Error("heavy churn produced no dropped messages")
	}
}

func TestStringerCoverage(t *testing.T) {
	kinds := []interface{ String() string }{
		Ordering, Ranking, ProtocolKind(0),
		CyclonViews, UniformOracle, MembershipKind(0),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("%T has empty String()", k)
		}
	}
}
