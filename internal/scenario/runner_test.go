package scenario

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// SweepGrid is Expand followed by Sweep.
func (r Runner) SweepGrid(g Grid, onResult func(RunResult)) ([]RunResult, error) {
	runs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	return r.Sweep(runs, onResult), nil
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	a := DeriveSeed(1, "fig6-burst", "jk", 0, 0)
	if b := DeriveSeed(1, "fig6-burst", "jk", 0, 0); a != b {
		t.Errorf("same inputs → different seeds: %d vs %d", a, b)
	}
	if a < 0 {
		t.Errorf("seed %d negative", a)
	}
	distinct := map[int64]string{}
	vary := []struct {
		name string
		seed int64
	}{
		{"base", DeriveSeed(1, "fig6-burst", "jk", 0, 0)},
		{"baseSeed", DeriveSeed(2, "fig6-burst", "jk", 0, 0)},
		{"scenario", DeriveSeed(1, "fig6-steady", "jk", 0, 0)},
		{"spec", DeriveSeed(1, "fig6-burst", "ranking", 0, 0)},
		{"specSeed", DeriveSeed(1, "fig6-burst", "jk", 42, 0)},
		{"replica", DeriveSeed(1, "fig6-burst", "jk", 0, 1)},
	}
	for _, v := range vary {
		if prev, dup := distinct[v.seed]; dup {
			t.Errorf("seed collision between %s and %s", prev, v.name)
		}
		distinct[v.seed] = v.name
	}
}

func TestGridExpansionDeterministic(t *testing.T) {
	g := Grid{Scenarios: []string{"fig4-policies", "fig6-burst"}, Replicas: 3, Scale: 0.03, BaseSeed: 7}
	runs1, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	runs2, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs1) != 2*2*3 {
		t.Fatalf("expanded %d runs, want 12", len(runs1))
	}
	for i := range runs1 {
		if runs1[i].Spec.Seed != runs2[i].Spec.Seed {
			t.Errorf("run %d: seeds differ across expansions", i)
		}
		if runs1[i].Index != i {
			t.Errorf("run %d carries index %d", i, runs1[i].Index)
		}
	}
}

func TestGridExpandUnknownScenario(t *testing.T) {
	if _, err := (Grid{Scenarios: []string{"fig9"}}).Expand(); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestGridExpandBadScale(t *testing.T) {
	if _, err := (Grid{Scale: 2}).Expand(); err == nil {
		t.Fatal("scale 2 accepted")
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the core grid guarantee:
// the same grid produces byte-identical (timing-free) JSON no matter how
// many workers execute it, and results stream while workers run.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	g := Grid{
		Scenarios: []string{"fig4-policies", "fig6-burst", "quickstart", "livecluster"},
		Replicas:  2, Scale: 0.02, BaseSeed: 3,
	}
	emit := func(workers int) (string, int) {
		var mu sync.Mutex
		streamed := 0
		r := Runner{Workers: workers, DisableTiming: true}
		results, err := r.SweepGrid(g, func(RunResult) {
			mu.Lock()
			streamed++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Error != "" {
				t.Fatalf("%s/%s failed: %s", res.Scenario, res.Spec.Name, res.Error)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.String(), streamed
	}
	serial, n1 := emit(1)
	parallel, n4 := emit(4)
	if serial != parallel {
		t.Error("sweep JSON differs between 1 and 4 workers")
	}
	if n1 != n4 || n1 == 0 {
		t.Errorf("streamed %d vs %d results", n1, n4)
	}
}

func TestRunnerReportsSpecErrors(t *testing.T) {
	bad := Run{Scenario: "x", Spec: Spec{Name: "broken"}}
	results := Runner{Workers: 2, DisableTiming: true}.Sweep([]Run{bad}, nil)
	if len(results) != 1 || results[0].Error == "" {
		t.Fatalf("invalid spec not reported: %+v", results)
	}
	if !strings.Contains(results[0].Summary(), "ERROR") {
		t.Errorf("Summary() = %q, want ERROR marker", results[0].Summary())
	}
}

func TestWriteCSV(t *testing.T) {
	g := Grid{Scenarios: []string{"livecluster"}, Scale: 1}
	results, err := Runner{Workers: 1, DisableTiming: true}.SweepGrid(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(results) {
		t.Fatalf("%d CSV lines, want header + %d rows", len(lines), len(results))
	}
	if !strings.HasPrefix(lines[0], "index,scenario,spec") {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(csvHeader) {
			t.Errorf("row has %d columns, want %d: %q", got, len(csvHeader), line)
		}
	}
}

func TestTimingPopulatedByDefault(t *testing.T) {
	g := Grid{Scenarios: []string{"livecluster"}}
	results, err := Runner{Workers: 1}.SweepGrid(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Timing == nil || res.Timing.CyclesPerSec <= 0 {
			t.Errorf("%s: timing missing or degenerate: %+v", res.Spec.Name, res.Timing)
		}
	}
}
