package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gossipkit/slicing/internal/scenario"
	"github.com/gossipkit/slicing/internal/telemetry"
)

func TestListShowsEveryScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %q", name)
		}
	}
	if !strings.Contains(out.String(), "Fig. 6(c)") {
		t.Error("list output missing paper figure references")
	}
}

func TestRunTableOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "fig4-policies", "-scale", "0.01", "-every", "10"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"# fig4-policies", "cycle", "jk", "mod-jk"} {
		if !strings.Contains(got, want) {
			t.Errorf("table output missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "livecluster", "-format", "json"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var results []scenario.RunResult
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("run -format json is not valid JSON: %v", err)
	}
	if len(results) != 1 || results[0].Scenario != "livecluster" {
		t.Fatalf("unexpected results: %+v", results)
	}
	if len(results[0].SDM) == 0 {
		t.Error("run output carries no SDM series")
	}
	if results[0].Timing == nil {
		t.Error("run output missing timing (default -timing=true)")
	}
}

// TestRunWritesProfiles exercises the -cpuprofile/-memprofile pair: both
// files must exist and be non-empty after a profiled run.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	err := run([]string{"run", "livecluster",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// -memstats reads the heap at the end of each run, while the engine or
// cluster is still alive, on both backends: the live backend has no
// engine-side audit but must still report bytes per node.
func TestRunMemStatsBothBackends(t *testing.T) {
	for _, backend := range []string{"sim", "live"} {
		var errOut bytes.Buffer
		err := run([]string{"run", "livecluster", "-backend", backend, "-memstats"}, io.Discard, &errOut)
		if err != nil {
			t.Fatal(err)
		}
		got := errOut.String()
		if !strings.Contains(got, "live heap after GC=") || !strings.Contains(got, "bytes/node") {
			t.Errorf("%s backend: -memstats printed no per-node heap line:\n%s", backend, got)
		}
		if strings.Contains(got, "no engine report") {
			t.Errorf("%s backend: -memstats still prints the no-report placeholder:\n%s", backend, got)
		}
	}
}

// run prints one verdict line per claim after the curves, and a failed
// claim (here: one cycle is too short for GDM to collapse) fails the
// command, which main turns into exit status 1.
func TestRunPrintsClaimVerdicts(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"run", "fig4-policies", "-scale", "0.03"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Lookup("fig4-policies")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "# claim PASS"); got != len(sc.Claims) || got == 0 {
		t.Errorf("%d PASS lines for %d claims:\n%s", got, len(sc.Claims), out.String())
	}

	out.Reset()
	err = run([]string{"run", "fig4-disorder", "-scale", "0.01", "-cycles", "1"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "claims of fig4-disorder failed") {
		t.Errorf("failed claim returned %v, want an error", err)
	}
	if !strings.Contains(out.String(), "# claim FAIL  last(mod-jk.gdm)") {
		t.Errorf("no FAIL line:\n%s", out.String())
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if err := run([]string{"run", "fig9"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if err := run([]string{"frobnicate"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

// TestSweepDeterministicJSON is the acceptance gate: a ≥12-run grid
// across ≥4 workers yields byte-identical JSON for the same seed.
func TestSweepDeterministicJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	sweep := func() string {
		var out, errOut bytes.Buffer
		err := run([]string{"sweep",
			"-scenarios", "fig4-concurrency,fig4-policies,quickstart",
			"-replicas", "2", "-workers", "4",
			"-scale", "0.01", "-seed", "5",
			"-timing=false",
		}, &out, &errOut)
		if err != nil {
			t.Fatalf("%v\nstderr:\n%s", err, errOut.String())
		}
		var results []scenario.RunResult
		if err := json.Unmarshal(out.Bytes(), &results); err != nil {
			t.Fatalf("sweep output is not valid JSON: %v", err)
		}
		if len(results) < 12 {
			t.Fatalf("grid expanded to %d runs, want ≥ 12", len(results))
		}
		// Progress streamed one line per run on stderr.
		if got := strings.Count(errOut.String(), "\n"); got != len(results) {
			t.Errorf("streamed %d progress lines, want %d", got, len(results))
		}
		return out.String()
	}
	if first, second := sweep(), sweep(); first != second {
		t.Error("same seed produced different sweep JSON")
	}
}

func TestSweepCSVToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.csv")
	err := run([]string{"sweep",
		"-scenarios", "livecluster", "-format", "csv",
		"-out", path, "-quiet",
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := string(raw)
	if !strings.HasPrefix(data, "index,scenario,spec") {
		t.Errorf("csv file starts with %q", data[:min(40, len(data))])
	}
	// Timing is on by default: the wallMS column must be populated.
	rows := strings.Split(strings.TrimSpace(data), "\n")
	if len(rows) < 2 {
		t.Fatalf("no data rows in %q", data)
	}
	cols := strings.Split(rows[1], ",")
	if cols[13] == "" {
		t.Error("wallMS column empty despite timing enabled")
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"sweep", "-scenarios", "fig9"},
		{"sweep", "-scale", "3"},
		{"sweep", "-format", "xml", "-scenarios", "livecluster"},
		{"sweep", "positional"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// The list output advertises backend support so operators know what
// -backend live can execute.
func TestListShowsBackends(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "backends") {
		t.Error("list output missing backends column")
	}
	if !strings.Contains(out.String(), "sim+live") {
		t.Error("list output missing a sim+live scenario")
	}
}

// One spec, two engines: the same scenario runs on the live backend and
// reports the same JSON result shape plus the backend tag.
func TestRunLiveBackendJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "livecluster", "-backend", "live", "-format", "json"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var results []scenario.RunResult
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("live run output is not valid JSON: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	res := results[0]
	if res.Backend != scenario.BackendLive {
		t.Errorf("backend tag = %q, want %q", res.Backend, scenario.BackendLive)
	}
	if res.Error != "" {
		t.Fatalf("live run failed: %s", res.Error)
	}
	if len(res.SDM) == 0 {
		t.Error("live run carries no SDM series")
	}
}

// A sim-only scenario is refused on the live backend instead of
// producing meaningless output.
func TestRunLiveBackendRefusesSimOnly(t *testing.T) {
	err := run([]string{"run", "fig4-concurrency", "-backend", "live", "-scale", "0.01"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "does not declare") {
		t.Fatalf("sim-only scenario accepted on live backend: %v", err)
	}
}

// A live sweep over "all" auto-selects the live-capable scenarios.
func TestSweepLiveBackendAutoFilters(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"sweep", "-backend", "live", "-scale", "0.01", "-workers", "2", "-quiet"}, &out, &errOut)
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errOut.String())
	}
	var results []scenario.RunResult
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("live sweep output is not valid JSON: %v", err)
	}
	if len(results) == 0 {
		t.Fatal("live sweep expanded to zero runs")
	}
	for _, res := range results {
		sc, err := scenario.Lookup(res.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.SupportsBackend(scenario.BackendLive) {
			t.Errorf("live sweep ran sim-only scenario %q", res.Scenario)
		}
		if res.Backend != scenario.BackendLive {
			t.Errorf("%s: backend tag %q", res.Scenario, res.Backend)
		}
		if res.Error != "" {
			t.Errorf("%s/%s: %s", res.Scenario, res.Spec.Name, res.Error)
		}
	}
}

func TestUnknownBackend(t *testing.T) {
	if err := run([]string{"run", "quickstart", "-backend", "peersim"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestRunSimWorkersMatchesSerial(t *testing.T) {
	var serial, parallel bytes.Buffer
	base := []string{"run", "quickstart", "-scale", "0.5", "-every", "5", "-format", "json", "-timing=false"}
	if err := run(base, &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-simworkers", "4"), &parallel, io.Discard); err != nil {
		t.Fatal(err)
	}
	// -simworkers lands in the emitted spec, so strip it before the
	// byte comparison: everything else — every SDM point, every count —
	// must be identical (the engine's worker-count invariance).
	norm := strings.Replace(parallel.String(), "\n      \"simWorkers\": 4,", "", 1)
	if norm != serial.String() {
		t.Errorf("-simworkers 4 changed results:\n%s\nvs\n%s", parallel.String(), serial.String())
	}
}

// trace in scenario mode must run a live spec under a ring and write a
// well-formed dump, and -kinds must print the decode table.
func TestTraceScenarioWritesEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"trace", "livecluster", "-scale", "0.05", "-out", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetry.TraceDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(dump.Events) == 0 || dump.Total < uint64(len(dump.Events)) {
		t.Errorf("trace dump has %d events of %d recorded", len(dump.Events), dump.Total)
	}
	var kinds bytes.Buffer
	if err := run([]string{"trace", "-kinds"}, &kinds, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, row := range traceKindTable {
		if !strings.Contains(kinds.String(), row.kind.String()) {
			t.Errorf("-kinds output missing %q", row.kind)
		}
	}
}
