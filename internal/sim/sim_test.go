package sim

import (
	"errors"
	"testing"

	"github.com/gossipkit/slicing/internal/churn"
	"github.com/gossipkit/slicing/internal/core"
	"github.com/gossipkit/slicing/internal/dist"
	"github.com/gossipkit/slicing/internal/fault"
	"github.com/gossipkit/slicing/internal/ordering"
	"github.com/gossipkit/slicing/internal/proto"
	"github.com/gossipkit/slicing/internal/ranking"
)

func baseOrderingConfig() Config {
	return Config{
		N: 200, Slices: 10, ViewSize: 15,
		Protocol: proto.Ordering, Policy: ordering.SelectMaxGain,
		AttrDist: dist.Uniform{Lo: 0, Hi: 1000},
		Seed:     1,
	}
}

func baseRankingConfig() Config {
	return Config{
		N: 200, Slices: 10, ViewSize: 15,
		Protocol: proto.Ranking,
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
		{"target slice past the top", func(c *Config) {
			top := c.Slices
			c.Faults = &fault.Plan{Byzantine: &fault.Byzantine{Policy: fault.LieCollusive, Frac: 0.1, TargetSlice: &top}}
		}, fault.ErrByzTarget},
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

// windows is the Config.Estimators factory of size-w sliding windows.
func windows(w int) func() ranking.Estimator {
	return func() ranking.Estimator { return ranking.MustNewWindow(w) }
}

func TestWindowEstimatorNeedsSize(t *testing.T) {
	if _, err := ranking.NewWindow(0); err == nil {
		t.Error("a window estimator without a size should fail")
	}
	cfg := baseRankingConfig()
	cfg.Estimators = windows(100)
	if _, err := New(cfg); err != nil {
		t.Errorf("window estimators with a size failed: %v", err)
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

// proto.Ranking over the Cyclon variant must track ranking over the uniform
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

// burst is Fig. 6(c)'s schedule: rate·n joins and as many leaves every
// cycle for the first until cycles.
func burst(rate float64, until int) churn.Schedule {
	return churn.Compose(churn.Phase{Schedule: churn.Flat{JoinRate: rate, LeaveRate: rate}, Cycles: until})
}

func TestChurnKeepsPopulationConstant(t *testing.T) {
	cfg := baseRankingConfig()
	cfg.Schedule = burst(0.01, 20)
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
	schedule := burst(0.002, 100)
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
	// proto.Ranking must actually recover: its SDM at the end is below its SDM
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
	schedule := churn.Flat{JoinRate: 0.002, LeaveRate: 0.002, Every: 5}
	pattern := churn.Correlated{Spread: 10}

	counterCfg := baseRankingConfig()
	counterCfg.Schedule, counterCfg.Pattern = schedule, pattern
	counter, err := Run(counterCfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	windowCfg := baseRankingConfig()
	windowCfg.Schedule, windowCfg.Pattern = schedule, pattern
	windowCfg.Estimators = windows(2000)
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
	cfg.Schedule = burst(0.05, 10)
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
		proto.Ordering, proto.Ranking, proto.Kind(0),
		CyclonViews, UniformOracle, MembershipKind(0),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("%T has empty String()", k)
		}
	}
}

// The ID space ends at core.MaxID: once it is issued, a churn join fails
// with ErrIDRange — addNode returns it before touching the arena, and
// Step panics with it — instead of wrapping the next ID onto the
// reserved ID 0 and aliasing a node.
func TestJoinPastMaxIDFails(t *testing.T) {
	cfg := baseRankingConfig()
	cfg.N = 20
	cfg.Schedule = churn.Flat{JoinRate: 0.1}
	cfg.Pattern = churn.Uniform{Dist: cfg.AttrDist}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.nextID = core.MaxID
	if err := e.addNode(1); !errors.Is(err, core.ErrIDRange) {
		t.Fatalf("addNode after MaxID = %v, want ErrIDRange", err)
	}
	if len(e.ids) != cfg.N || len(e.slots) != cfg.N+1 || e.nextID != core.MaxID {
		t.Fatalf("failed addNode changed the arena: %d ids, %d slot-table rows, nextID %v",
			len(e.ids), len(e.slots), e.nextID)
	}
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, core.ErrIDRange) {
			t.Errorf("Step joining past MaxID panicked with %v, want ErrIDRange", err)
		}
	}()
	e.Step()
}
