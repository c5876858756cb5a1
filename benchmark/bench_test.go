package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var toyKernels = kernelScale{coldViews: 2_000, metricsN: 2_000, batch: 200 * time.Microsecond}

// toy shrinks a workload to a size the tests can run in about a second:
// sim N=2k, live N=500, serve N=200.
func toy(w workload) workload {
	switch w.kind {
	case kindSim:
		w.spec.N = 2_000
		w.minTimed = 8
	case kindLive:
		w.spec.N = 500
		w.warm, w.minTimed = 3, 8
	case kindServe:
		w.spec.N = 200
		w.warm, w.minTimed = 30, 9
	}
	w.rate = 0
	return w
}

func runToy(t *testing.T, name string, seed int64, trace bool) (*Result, *tracer) {
	t.Helper()
	w, err := findWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	w = toy(w)
	res, tr, err := measure(w, options{seed: seed, seconds: 1, trace: trace, kernels: toyKernels})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if c.Failed > 0 {
			t.Errorf("%s: check %s failed %d of %d: %s", w.name, c.Name, c.Failed, c.Attempted, c.Detail)
		}
	}
	if _, err := res.contractLine(); err != nil {
		t.Errorf("%s: %v", w.name, err)
	}
	return res, tr
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestManifestMatchesTables pins BENCHMARK.json and the metric tables to
// each other: same workloads, same metric names and units, in the same
// order, every name well-formed.
func TestManifestMatchesTables(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(1)
	if len(man.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(ws))
	}
	for i, w := range ws {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, man.Workloads[i].Name, man.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, declared []manifestMetric, table []metricDecl) {
		if len(declared) != len(table) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(table))
		}
		for i, d := range table {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if !metricName.MatchString(d.name) {
				t.Errorf("%s metric name %q is malformed", kind, d.name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better=%q", kind, m.Name, m.Better)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd)
	same("per_layer", man.PerLayer, perLayer)
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestWorkloadsAtToyScale runs every workload end to end at toy scale,
// with tracing off and (outside -short and -race) traced: every declared
// metric is emitted, no check fails, the same seed repeats its
// fingerprint and another seed does not, the sim phases account for the
// Step wall time, and the trace file is a well-formed span tree.
func TestWorkloadsAtToyScale(t *testing.T) {
	small := testing.Short() || raceEnabled
	for _, w := range workloads(1) {
		t.Run(w.name, func(t *testing.T) {
			first, _ := runToy(t, w.name, 1, false)
			if len(first.Metrics) != len(endToEnd) {
				t.Fatalf("%d end-to-end metrics emitted, %d declared", len(first.Metrics), len(endToEnd))
			}
			for _, m := range first.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			if small {
				return
			}
			again, _ := runToy(t, w.name, 1, false)
			if again.Fingerprint != first.Fingerprint {
				t.Errorf("seed 1 gave fingerprints %s and %s", first.Fingerprint, again.Fingerprint)
			}
			// Another seed must change the trajectory; the serve workload
			// shares the live runtime with live-ordering-10k and skips the
			// extra two seconds.
			if w.kind != kindServe {
				other, _ := runToy(t, w.name, 2, false)
				if other.Fingerprint == first.Fingerprint {
					t.Errorf("seeds 1 and 2 both gave fingerprint %s", first.Fingerprint)
				}
			}

			traced, tr := runToy(t, w.name, 1, true)
			if len(traced.Metrics) != len(perLayer) {
				t.Fatalf("%d per-layer metrics emitted, %d declared", len(traced.Metrics), len(perLayer))
			}
			if w.kind == kindSim {
				if frac, _ := traced.metric("sim.step_unaccounted_frac"); frac >= 0.02 || frac < 0 {
					t.Errorf("sim.step_unaccounted_frac = %v, want [0, 0.02)", frac)
				}
			}
			checkTraceFile(t, tr, w.name)
		})
	}
}

// checkTraceFile writes the trace and reads it back: it parses, names its
// workload, and every span's parent exists and started no later than it.
func checkTraceFile(t *testing.T, tr *tracer, workload string) {
	t.Helper()
	path, err := tr.write(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "trace-"+workload+".json" {
		t.Errorf("trace written to %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(tf.Spans) < 3 {
		t.Fatalf("%s holds %d spans", path, len(tf.Spans))
	}
	byID := map[int]Span{}
	for _, sp := range tf.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range tf.Spans {
		if sp.Workload != workload || sp.EndNS < sp.StartNS {
			t.Errorf("bad span %+v", sp)
		}
		if sp.ID == rootSpan {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %d (%s) has no parent %d", sp.ID, sp.Name, sp.Parent)
		} else if parent.StartNS > sp.StartNS {
			t.Errorf("span %d (%s) starts before its parent %d", sp.ID, sp.Name, sp.Parent)
		}
	}
}

// TestCompareVerdicts feeds compare two result sets that differ by a
// known amount.
func TestCompareVerdicts(t *testing.T) {
	m := manifestMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", []float64{100, 101, 99}, []float64{100, 100, 101}, "ok"},
		{"regressed", []float64{100, 101, 99}, []float64{85, 86, 84}, "regressed"},
		{"noisy", []float64{100, 130, 80}, []float64{99, 125, 82}, "unresolved"},
		{"noisy but every run better", []float64{100, 130, 80}, []float64{140, 170, 135}, "ok"},
	} {
		if got := judge(m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want Python's 2.75 5.5 8.25", q1, q2, q3)
	}
}
