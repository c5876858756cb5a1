package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// manifest is BENCHMARK.json: the one statement of workloads, metrics,
// directions and regression bounds. The benchmark reads its bounds from
// there rather than repeating them.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json in the working directory or its
// parent (the benchmark runs from the repository root, its tests from
// benchmark/).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("run from the repository root: %w", firstErr)
}

// setupFloorS is the absolute part of the setup_s bound: a set-up may
// get worse by its relative bound or by this many seconds, whichever is
// larger, because small set-ups are a few hundred milliseconds.
const setupFloorS = 0.1

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// runCompare prints, per (workload, end-to-end metric), both sets'
// medians and quartiles, how many seed-matched pairs B won, and a
// verdict from the bounds fixed in BENCHMARK.json. Simulated statistics
// — fingerprint, final_sdm_ratio, failed checks — must be identical.
func runCompare(man *manifest, args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	bad := 0
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA q1/median/q3\tB q1/median/q3\tchange\tbound\tB wins\tverdict")
	for _, wl := range man.Workloads {
		ra, rb := selectRuns(a, wl.Name), selectRuns(b, wl.Name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t%d runs\t%d runs\t\t\t\tmissing\n", wl.Name, len(ra), len(rb))
			bad++
			continue
		}
		for _, m := range man.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			verdict := judge(m, va, vb)
			if m.Name == "final_sdm_ratio" {
				// A simulated statistic: judged on equality, seed by seed.
				verdict = sameBySeed(ra, rb, func(r *Result) string {
					v, _ := r.metric(m.Name)
					return fmt.Sprint(v)
				})
			}
			if verdict == "regressed" || verdict == "differs" {
				bad++
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			wins, pairs := pairWins(m, ra, rb)
			fmt.Fprintf(tw, "%s\t%s\t%s/%s/%s\t%s/%s/%s\t%+.2f%%\t%.0f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, formatValue(a1), formatValue(a2), formatValue(a3),
				formatValue(b1), formatValue(b2), formatValue(b3),
				100*(b2-a2)/a2, 100*m.Bound, wins, pairs, verdict)
		}
		verdict := sameBySeed(ra, rb, func(r *Result) string { return r.Fingerprint })
		if verdict == "differs" {
			bad++
		}
		fmt.Fprintf(tw, "%s\tfingerprint\t\t\t\texact\t\t%s\n", wl.Name, verdict)
		fa, fb := failures(ra), failures(rb)
		verdict = "ok"
		if fa+fb > 0 {
			verdict = "regressed"
			bad++
		}
		fmt.Fprintf(tw, "%s\terror_frac\t%d failed\t%d failed\t\t0\t\t%s\n", wl.Name, fa, fb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, differ or are missing", bad)
	}
	return nil
}

// selectRuns keeps a workload's end-to-end (tracing off) runs.
func selectRuns(rs []Result, workload string) []Result {
	var out []Result
	for _, r := range rs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []Result, metric string) []float64 {
	var out []float64
	for i := range rs {
		if v, ok := rs[i].metric(metric); ok {
			out = append(out, v)
		}
	}
	return out
}

func failures(rs []Result) int {
	n := 0
	for i := range rs {
		_, f := rs[i].totals()
		n += f
	}
	return n
}

// worse is how much worse b is than a in the metric's direction, as a
// share of a.
func worse(m manifestMetric, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the metric's fixed bound to the two sets' medians.
func judge(m manifestMetric, va, vb []float64) string {
	if len(va) == 0 || len(vb) == 0 {
		return "missing"
	}
	_, a2, _ := quartiles(va)
	_, b2, _ := quartiles(vb)
	w := worse(m, a2, b2)
	limit := m.Bound
	if m.Name == "setup_s" {
		limit = max(limit, setupFloorS/a2)
	}
	if w > limit {
		return "regressed"
	}
	// A spread wider than the bound cannot resolve a change of the
	// bound's size — unless every run of B beats every run of A.
	if spread(va) > limit || spread(vb) > limit {
		sa, sb := sortedCopy(va), sortedCopy(vb)
		allBetter := worse(m, sa[0], sb[len(sb)-1]) < 0 && worse(m, sa[len(sa)-1], sb[0]) < 0
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// pairWins pairs the i-th run of each seed in A with the i-th run of
// that seed in B and counts the pairs B wins (ties count for neither).
func pairWins(m manifestMetric, ra, rb []Result) (wins, pairs int) {
	bySeed := map[int64][]float64{}
	for i := range rb {
		if v, ok := rb[i].metric(m.Name); ok {
			bySeed[rb[i].Seed] = append(bySeed[rb[i].Seed], v)
		}
	}
	for i := range ra {
		va, ok := ra[i].metric(m.Name)
		rest := bySeed[ra[i].Seed]
		if !ok || len(rest) == 0 {
			continue
		}
		bySeed[ra[i].Seed] = rest[1:]
		pairs++
		if worse(m, va, rest[0]) < 0 {
			wins++
		}
	}
	return wins, pairs
}

// sameBySeed checks a simulated statistic: every run of one (seed,
// seconds) pair, in either set, must have produced the same value. A
// perf-only change leaves every simulated statistic where it was.
func sameBySeed(ra, rb []Result, stat func(*Result) string) string {
	type key struct {
		seed    int64
		seconds int
	}
	seen := map[key]string{}
	for _, rs := range [][]Result{ra, rb} {
		for i := range rs {
			k, v := key{rs[i].Seed, rs[i].Seconds}, stat(&rs[i])
			if prev, ok := seen[k]; ok && prev != v {
				return "differs"
			}
			seen[k] = v
		}
	}
	return "identical"
}
