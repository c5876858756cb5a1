package sim

import (
	"testing"
)

// The ranking protocol's convergence must be essentially unaffected by
// what would be concurrency for the ordering protocol (§5: every
// received attribute value is useful). The engine delivers ranking
// updates immediately regardless of Concurrency; this test pins that
// behavioral equivalence.
func TestRankingUnaffectedByConcurrencySetting(t *testing.T) {
	run := func(conc float64) []float64 {
		cfg := baseRankingConfig()
		cfg.Concurrency = conc
		res, err := Run(cfg, 50)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res.SDM.Points))
		for i, p := range res.SDM.Points {
			out[i] = p.Value
		}
		return out
	}
	atomic := run(0)
	full := run(1)
	for i := range atomic {
		if atomic[i] != full[i] {
			t.Fatalf("ranking SDM diverges at point %d: %v vs %v", i, atomic[i], full[i])
		}
	}
}

// Under atomic cycles the random-value multiset is conserved: swaps are
// two-sided. (The drift experiment shows concurrency breaks this.)
func TestAtomicCyclesConserveRandomValues(t *testing.T) {
	cfg := baseOrderingConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := func() map[float64]int {
		m := make(map[float64]int)
		for _, st := range e.States() {
			m[st.R]++
		}
		return m
	}
	before := count()
	e.Run(60)
	after := count()
	if len(before) != len(after) {
		t.Fatalf("distinct values changed: %d → %d", len(before), len(after))
	}
	for v, c := range before {
		if after[v] != c {
			t.Fatalf("value %v count changed: %d → %d", v, c, after[v])
		}
	}
}

// Even at full concurrency the default model conserves the random-value
// multiset: exchanges execute on live values, so swaps stay two-sided
// (this is what keeps the paper's Fig. 4(d) floors aligned).
func TestFullConcurrencyConservesValuesByDefault(t *testing.T) {
	cfg := baseOrderingConfig()
	cfg.Concurrency = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distinct := func() int {
		m := make(map[float64]bool)
		for _, st := range e.States() {
			m[st.R] = true
		}
		return len(m)
	}
	before := distinct()
	e.Run(60)
	if after := distinct(); after != before {
		t.Errorf("live-payload model drifted values: %d → %d", before, after)
	}
}

// With stale payloads (the literal message-passing reading of Fig. 2),
// full concurrency duplicates/loses values — the drift extension
// experiment's mechanism.
func TestStalePayloadsDriftRandomValues(t *testing.T) {
	cfg := baseOrderingConfig()
	cfg.Concurrency = 1
	cfg.StalePayloads = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distinct := func() int {
		m := make(map[float64]bool)
		for _, st := range e.States() {
			m[st.R] = true
		}
		return len(m)
	}
	before := distinct()
	e.Run(60)
	if after := distinct(); after >= before {
		t.Errorf("no value drift under full concurrency: %d → %d", before, after)
	}
}

// The drift extension: with stale payloads, atomic cycles keep every
// distinct random value, while full concurrency ends with fewer distinct
// values than the atomic run.
func TestDriftShape(t *testing.T) {
	distinctAfter := func(conc float64) (start, end int) {
		cfg := baseOrderingConfig()
		cfg.ViewSize = 20
		cfg.Concurrency = conc
		cfg.StalePayloads = true
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		distinct := func() int {
			m := make(map[float64]bool)
			for _, st := range e.States() {
				m[st.R] = true
			}
			return len(m)
		}
		start = distinct()
		e.Run(50)
		return start, distinct()
	}
	atomicStart, atomicEnd := distinctAfter(0)
	if atomicEnd != atomicStart {
		t.Errorf("atomic run lost random values: %d → %d", atomicStart, atomicEnd)
	}
	if _, fullEnd := distinctAfter(1); fullEnd >= atomicEnd {
		t.Errorf("full concurrency kept %d distinct values; expected drift below %d", fullEnd, atomicEnd)
	}
}

// Population size series tracks churnless runs exactly.
func TestSizeSeriesConstantWithoutChurn(t *testing.T) {
	cfg := baseRankingConfig()
	res, err := Run(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Size.Points {
		if p.Value != float64(cfg.N) {
			t.Fatalf("size at cycle %d = %v, want %d", p.Cycle, p.Value, cfg.N)
		}
	}
}
