package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Metric is one measured value. Names are the ones BENCHMARK.json
// declares; per-layer names carry their layer as a package-name prefix
// ("sim.", "view.", ...).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Check is one correctness check. Attempted counts the operations the
// check covered (cycles, queries), Failed the ones that did not pass;
// their sums over a run are the contract's attempted/failed and the
// issue's error_frac.
type Check struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Detail    string `json:"detail,omitempty"`
}

// Result is everything one run of one workload produced.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Fingerprint is FNV-64a over every simulated statistic of the run
	// (see fingerprint); equal seeds must give equal fingerprints on any
	// machine, and a perf-only change must not move it.
	Fingerprint string `json:"fingerprint"`
	// Samples states how many timed operations stand behind the
	// percentile metrics (timed cycles, or phase-B queries).
	Samples int `json:"samples"`
	// Series is the raw sequence behind the throughput and latency
	// metrics, in run order: timed Step wall times in ms (sim, live), or
	// closed-loop slice throughputs in queries/s (serve).
	Series  []float64 `json:"series,omitempty"`
	Metrics []Metric  `json:"metrics"`
	Checks  []Check   `json:"checks"`
	Env     Env       `json:"env"`
}

// Env records where a run was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPU        string `json:"cpu,omitempty"`
}

// newResult starts the record of one run; a traced run also gets its
// tracer and the workload-independent kernel metrics.
func newResult(w workload, o options) (*Result, *tracer) {
	res := &Result{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Env: currentEnv()}
	if !o.trace {
		return res, nil
	}
	// The kernels run before the workload builds anything, so the
	// million-node arena never shares the heap with their pools.
	kernelMetrics(res, o)
	return res, newTracer(w.name)
}

// endToEndMetrics adds the six end-to-end metrics in their declared
// units. heapBytes is the live heap the workload's n nodes account for.
func (r *Result) endToEndMetrics(setups []float64, opsPerS, p50MS, p90MS float64, heapBytes uint64, n int, sdmRatio float64) {
	r.add("setup_s", median(setups), "s")
	r.add("ops_per_s", opsPerS, "1/s")
	r.add("op_ms_p50", p50MS, "ms")
	r.add("op_ms_p90", p90MS, "ms")
	r.add("heap_bytes_per_node", float64(heapBytes)/float64(n), "B")
	r.add("final_sdm_ratio", sdmRatio, "ratio")
}

func (r *Result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

func (r *Result) metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// check records a correctness check over attempted operations.
func (r *Result) check(name string, attempted, failed int, detail string) {
	if failed == 0 {
		detail = ""
	}
	r.Checks = append(r.Checks, Check{Name: name, Attempted: attempted, Failed: failed, Detail: detail})
}

// expect records a single pass/fail check.
func (r *Result) expect(name string, ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	r.check(name, 1, failed, fmt.Sprintf(format, args...))
}

func (r *Result) totals() (attempted, failed int) {
	for _, c := range r.Checks {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// contractLine is the last line of standard output the driver reads.
func (r *Result) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := r.totals()
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]mv{}}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out.Metrics[m.Name] = mv{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// printHuman writes the run as "name value unit" lines.
func (r *Result) printHuman(w io.Writer) {
	mode := "end-to-end, tracing off"
	if r.Trace {
		mode = "per-layer, traced run"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%d samples=%d fingerprint=%s\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Samples, r.Fingerprint)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.Name, formatValue(m.Value), m.Unit)
	}
	attempted, failed := r.totals()
	fmt.Fprintf(w, "error_frac %s ratio (%d failed of %d attempted)\n",
		formatValue(float64(failed)/float64(max(attempted, 1))), failed, attempted)
	for _, c := range r.Checks {
		if c.Failed > 0 {
			fmt.Fprintf(w, "CHECK FAILED %s: %d of %d: %s\n", c.Name, c.Failed, c.Attempted, c.Detail)
		}
	}
}

func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// appendResult adds the run to a result-set file: one JSON object per
// line, so sets grow by appending and `compare` reads them as a stream.
func appendResult(path string, r *Result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults reads a result-set file written by appendResult.
func readResults(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []Result
	for {
		var r Result
		err := dec.Decode(&r)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
}

func currentEnv() Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// heapLive returns HeapAlloc after two collections: the second one
// empties the sync.Pool victim caches the first one filled, so the
// reading does not depend on what the pools held.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// fingerprinter accumulates simulated statistics into FNV-64a.
type fingerprinter struct{ h hash.Hash64 }

func newFingerprinter() *fingerprinter { return &fingerprinter{h: fnv.New64a()} }

func (f *fingerprinter) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		f.h.Write(b[:])
	}
}

func (f *fingerprinter) f64(vs ...float64) {
	for _, v := range vs {
		f.u64(math.Float64bits(v))
	}
}

func (f *fingerprinter) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// percentile reads the p-th percentile by nearest rank from sorted
// values; p=0.5 on an even count takes the lower middle.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the usual median (mean of the two middles on even counts).
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// millis converts step times to milliseconds, in run order.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
