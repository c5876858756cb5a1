// Command slicebench lists, runs and sweeps the declarative scenarios of
// the slicing evaluation: the paper's figure families (Figs. 4 and 6 of
// ICDCS 2007) and the extension workloads, as registered in
// internal/scenario.
//
// Usage:
//
//	slicebench list
//	slicebench list -family chaos
//	slicebench run fig6-burst -scale 0.05
//	slicebench run fig4-policies -format csv -every 5
//	slicebench run live-convergence -backend live -scale 0.1
//	slicebench run scale-100k -simworkers 8 -cpuprofile cpu.prof -memprofile mem.prof
//	slicebench sweep -scenarios all -scale 0.02 -replicas 2 -workers 8
//	slicebench sweep -family chaos -scale 0.1 -backend live -out chaos.json
//	slicebench sweep -scenarios fig4-concurrency,fig6-steady -format csv
//	slicebench trace livecluster -out trace.json
//
// run executes one scenario family and prints its SDM curves side by
// side (table, csv or json), then one PASS/FAIL line per claim the
// family states about its curves (on stderr with json); a failed claim
// makes the command exit 1. sweep expands a scenario grid — families ×
// seed replicas — across a worker pool and emits one summary record per
// run. Sweep output is deterministic: with -timing=false the same grid
// and seed produce byte-identical JSON regardless of -workers. The wall
// time a sweep reports covers a whole run, construction included; it
// is a progress indicator, and the speed numbers this repo quotes come
// from benchmark/ (bash benchmark/run.sh), not from here.
//
// Both run and sweep accept -backend sim|live (default sim): one spec,
// two engines. The live backend materializes each spec as a cluster of
// real protocol participants on the runtime's sharded scheduler —
// churn as actual joins and crashes, latency/loss injected per the
// spec's live block — and reports the same result shape plus a backend
// tag. Scenarios declare the backends they support (see list); a live
// sweep over "all" auto-selects the live-capable families.
//
// -simworkers puts all cores inside EACH simulator run (the engine's
// parallel cycle rounds) instead of across runs; results are
// bit-identical at any value, so it is purely a throughput knob for big
// single runs like scale-100k.
//
// trace captures a protocol trace — from a running node's /debug/trace
// endpoint, or by running a live scenario under a fresh trace ring —
// and writes the dump as JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"github.com/gossipkit/slicing/internal/metrics"
	"github.com/gossipkit/slicing/internal/scenario"
	"github.com/gossipkit/slicing/internal/sim"
	"github.com/gossipkit/slicing/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "slicebench:", err)
		os.Exit(1)
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `usage:
  slicebench list                      list registered scenarios
  slicebench run <scenario> [flags]    run one scenario family
  slicebench sweep [flags]             run a scenario × seed grid
  slicebench trace <scenario>|[-url]   capture a protocol trace as JSON

run 'slicebench <subcommand> -h' for flags`)
}

func run(args []string, out, errOut io.Writer) error {
	// Global diagnostics flags precede the subcommand (flag parsing
	// stops at the first non-flag argument, the subcommand itself):
	//
	//	slicebench -log-level debug run live-convergence
	gfs := flag.NewFlagSet("slicebench", flag.ContinueOnError)
	gfs.SetOutput(errOut)
	logLevel := gfs.String("log-level", "", telemetry.LogLevelUsage)
	logFormat := gfs.String("log-format", "", telemetry.LogFormatUsage)
	gfs.Usage = func() { usage(errOut) }
	if err := gfs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(errOut, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	args = gfs.Args()
	if len(args) == 0 {
		usage(errOut)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return runList(args[1:], out, errOut)
	case "run":
		return runOne(args[1:], out, errOut)
	case "sweep":
		return runSweep(args[1:], out, errOut)
	case "trace":
		return runTrace(args[1:], out, errOut)
	case "-h", "--help", "help":
		usage(out)
		return nil
	default:
		usage(errOut)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// runList prints the scenario catalog, optionally filtered by family
// name or tag.
func runList(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench list", flag.ContinueOnError)
	fs.SetOutput(errOut)
	family := fs.String("family", "", "only list scenarios matching this name or tag (e.g. chaos)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("list takes flags only, got %q", fs.Args())
	}
	tab := metrics.NewTable("name", "figure", "backends", "tags", "specs", "description")
	listed := 0
	for _, sc := range scenario.All() {
		if *family != "" && !sc.HasTag(*family) {
			continue
		}
		listed++
		fig := sc.Figure
		if fig == "" {
			fig = "extension"
		}
		backends := scenario.BackendSim
		if sc.SupportsBackend(scenario.BackendLive) {
			backends += "+" + scenario.BackendLive
		}
		tab.AddRow(sc.Name, fig, backends, strings.Join(sc.Tags, ","), len(sc.Specs), sc.Description)
	}
	if *family != "" && listed == 0 {
		return fmt.Errorf("no scenario matches family %q (see 'slicebench list')", *family)
	}
	_, err := tab.WriteTo(out)
	return err
}

// liveWorkers resolves the -workers default per backend: 0 means "all
// cores" for sim runs, but each live run spins up its own
// scheduler-shard worker pool, so defaulting live sweeps to all cores
// would oversubscribe the machine quadratically. Explicit values are
// honored either way.
func liveWorkers(workers int, be scenario.Backend) int {
	if workers == 0 && be != nil && be.Name() == scenario.BackendLive {
		return 2
	}
	return workers
}

// resolveBackend parses the -backend flag and checks the named
// scenarios against it.
func resolveBackend(name string, scenarios []string) (scenario.Backend, error) {
	b, err := scenario.BackendByName(name)
	if err != nil {
		return nil, err
	}
	for _, scName := range scenarios {
		sc, err := scenario.Lookup(scName)
		if err != nil {
			return nil, err
		}
		if !sc.SupportsBackend(b.Name()) {
			return nil, fmt.Errorf("scenario %q does not declare the %q backend (see 'slicebench list')", scName, b.Name())
		}
	}
	return b, nil
}

// runOne executes one scenario family and renders its SDM curves.
func runOne(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench run", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scale      = fs.Float64("scale", 1, "population/cycle scale in (0,1]; 1 = paper scale")
		seed       = fs.Int64("seed", 1, "base seed for per-run seed derivation")
		workers    = fs.Int("workers", 0, "worker pool size (0 = all cores; live backend defaults to 2)")
		simWorkers = fs.Int("simworkers", 0, "per-run simulator compute workers (0 = spec value; results are identical at any count)")
		backend    = fs.String("backend", "sim", "execution backend: sim|live")
		format     = fs.String("format", "table", "output format: table|csv|json")
		every      = fs.Int("every", 1, "record the SDM every k-th cycle")
		cycles     = fs.Int("cycles", 0, "override every spec's cycle count (0 = spec value)")
		timing     = fs.Bool("timing", true, "report wall time per run (json only)")
		memStats   = fs.Bool("memstats", false, "print each run's live heap per node after GC, the sim engine's memory budget (arena bytes, bytes/node) and process heap stats")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file, taken at the end of the last run while its engine or cluster is still alive")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics and /debug/trace for the running scenario on this address (runs sharing the process share the gauges; use -workers 1 for per-run readings)")
	)
	// Accept the scenario name before the flags (the natural word order)
	// or after them; the flag package only parses flags up front.
	var name string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case name == "" && fs.NArg() == 1:
		name = fs.Arg(0)
	case name != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("run needs exactly one scenario name (see 'slicebench list')")
	}
	sc, err := scenario.Lookup(name)
	if err != nil {
		return err
	}
	be, err := resolveBackend(*backend, []string{name})
	if err != nil {
		return err
	}
	var inst scenario.Instrumentation
	var heapErr error
	if *memStats || *memProf != "" {
		// Heap readings are taken at the end of each run, while its engine
		// or cluster is still alive; after the sweep there is nothing left
		// to measure. Runs sharing the process (-workers > 1) share the
		// heap; the profile on disk is the last finished run's.
		var mu sync.Mutex
		inst.AtEnd = func(spec scenario.Spec, nodes int) {
			mu.Lock()
			defer mu.Unlock()
			if err := captureHeap(errOut, spec.Name, nodes, *memStats, *memProf); err != nil && heapErr == nil {
				heapErr = err
			}
		}
	}
	if *debugAddr != "" {
		inst.Telemetry = telemetry.NewRegistry()
		inst.Trace = telemetry.NewTraceRing(0)
	}
	switch b := be.(type) {
	case scenario.SimBackend:
		b.Inst = inst
		be = b
	case scenario.LiveBackend:
		b.Inst = inst
		be = b
	}
	if *debugAddr != "" {
		ln, err := serveDebug(*debugAddr, inst)
		if err != nil {
			return err
		}
		defer ln.Close()
		slog.Info("serving run diagnostics", "url", "http://"+ln.Addr().String(),
			"endpoints", "/metrics /debug/trace")
	}
	g := scenario.Grid{Scenarios: []string{name}, Scale: *scale, BaseSeed: *seed}
	runs, err := g.Expand()
	if err != nil {
		return err
	}
	for i := range runs {
		if *every > 0 {
			runs[i].Spec.SampleEvery = *every
		}
		if *simWorkers > 0 {
			runs[i].Spec.SimWorkers = *simWorkers
		}
		if *cycles > 0 {
			runs[i].Spec.Cycles = *cycles
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	r := scenario.Runner{Workers: liveWorkers(*workers, be), DisableTiming: !*timing, Backend: be}
	results := r.Sweep(runs, nil)
	if heapErr != nil {
		return heapErr
	}
	for _, res := range results {
		if res.Error != "" {
			return fmt.Errorf("%s/%s: %s", res.Scenario, res.Spec.Name, res.Error)
		}
	}
	if *memStats {
		writeMemStats(errOut, results)
	}
	verdictOut := out
	switch *format {
	case "json":
		err = scenario.WriteJSON(out, results)
		verdictOut = errOut // keep stdout valid JSON
	case "csv", "table":
		fmt.Fprintf(out, "# %s — %s\n", sc.Name, sc.Description)
		series := make([]metrics.Series, len(results))
		for i, res := range results {
			series[i] = metrics.Series{Name: res.Spec.Name}
			for _, p := range res.SDM {
				series[i].Points = append(series[i].Points, p)
			}
		}
		if *format == "csv" {
			err = metrics.WriteCSV(out, "cycle", series...)
		} else {
			err = writeSeriesTable(out, series)
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	return writeVerdicts(verdictOut, sc, results)
}

// writeVerdicts prints one PASS/FAIL line per claim of the family and
// fails the command if any claim fails.
func writeVerdicts(out io.Writer, sc scenario.Scenario, results []scenario.RunResult) error {
	runs := make(map[string]*sim.Result, len(results))
	for _, res := range results {
		runs[res.Spec.Name] = res.Out
	}
	failed := 0
	for _, v := range sc.Check(runs) {
		fmt.Fprintf(out, "# claim %s\n", v)
		if !v.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d claims of %s failed", failed, len(sc.Claims), sc.Name)
	}
	return nil
}

// captureHeap is the end-of-run heap reading: two collections (the
// second frees what the first one's finalizers released), then the live
// heap per node and/or a heap profile, both taken while the run's engine
// or cluster is still reachable from the caller.
func captureHeap(out io.Writer, spec string, nodes int, stats bool, profPath string) error {
	runtime.GC()
	runtime.GC()
	if stats && nodes > 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(out, "# mem %s: n=%d live heap after GC=%s (%.1f bytes/node)\n",
			spec, nodes, fmtBytes(int64(ms.HeapAlloc)), float64(ms.HeapAlloc)/float64(nodes))
	}
	if profPath == "" {
		return nil
	}
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.WriteHeapProfile(f)
}

// writeMemStats prints each sim run's engine-side memory budget (the
// deterministic accounting sim.MemReport performs over the arena and
// the per-slot slices; the live backend has no such audit, its
// captureHeap line stands alone) followed by the process-level
// allocation totals from runtime.ReadMemStats.
func writeMemStats(out io.Writer, results []scenario.RunResult) {
	for _, res := range results {
		if res.Mem == nil {
			continue
		}
		m := res.Mem
		fmt.Fprintf(out, "# mem %s/%s: n=%d arena=%s state=%s staging=%s total=%s (%.1f bytes/node)\n",
			res.Scenario, res.Spec.Name, m.Nodes,
			fmtBytes(m.ArenaBytes), fmtBytes(m.StateBytes), fmtBytes(m.StagingBytes),
			fmtBytes(m.Total()), m.BytesPerNode)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(out, "# mem process: heapAlloc=%s heapSys=%s (peak proxy) totalAlloc=%s numGC=%d\n",
		fmtBytes(int64(ms.HeapAlloc)), fmtBytes(int64(ms.HeapSys)),
		fmtBytes(int64(ms.TotalAlloc)), ms.NumGC)
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// serveDebug binds a diagnostics listener for an in-flight run:
// metrics scrape plus trace dump.
func serveDebug(addr string, inst scenario.Instrumentation) (net.Listener, error) {
	mux := http.NewServeMux()
	telemetry.MountDiagnostics(mux, inst.Telemetry, inst.Trace, false)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, mux) }()
	return ln, nil
}

// writeSeriesTable renders cycle-aligned series as an aligned table.
func writeSeriesTable(out io.Writer, series []metrics.Series) error {
	headers := make([]string, 0, len(series)+1)
	headers = append(headers, "cycle")
	cycles := map[int]bool{}
	for _, s := range series {
		headers = append(headers, s.Name)
		for _, p := range s.Points {
			cycles[p.Cycle] = true
		}
	}
	order := make([]int, 0, len(cycles))
	for c := range cycles {
		order = append(order, c)
	}
	sort.Ints(order)
	tab := metrics.NewTable(headers...)
	for _, c := range order {
		row := make([]any, 0, len(series)+1)
		row = append(row, c)
		for _, s := range series {
			if v, ok := s.At(c); ok {
				row = append(row, v)
			} else {
				row = append(row, "")
			}
		}
		tab.AddRow(row...)
	}
	_, err := tab.WriteTo(out)
	return err
}

// runSweep expands and executes a scenario grid.
func runSweep(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("slicebench sweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		scenarios  = fs.String("scenarios", "all", "comma-separated scenario names, or 'all'")
		family     = fs.String("family", "", "only sweep scenarios matching this name or tag (e.g. chaos)")
		replicas   = fs.Int("replicas", 1, "seed replicas per spec")
		scale      = fs.Float64("scale", 1, "population/cycle scale in (0,1]; 1 = paper scale")
		seed       = fs.Int64("seed", 1, "base seed for per-run seed derivation")
		workers    = fs.Int("workers", 0, "worker pool size (0 = all cores; live backend defaults to 2)")
		simWorkers = fs.Int("simworkers", 0, "per-run simulator compute workers (0 = spec value; results are identical at any count)")
		backend    = fs.String("backend", "sim", "execution backend: sim|live ('all' scenarios auto-filter to the backend)")
		format     = fs.String("format", "json", "output format: json|csv")
		timing     = fs.Bool("timing", true, "include wall time and cycles/sec (disable for byte-identical output)")
		outPath    = fs.String("out", "", "write output to a file instead of stdout")
		quiet      = fs.Bool("quiet", false, "suppress per-run progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sweep takes flags only, got %q", fs.Args())
	}
	g := scenario.Grid{Replicas: *replicas, Scale: *scale, BaseSeed: *seed}
	var be scenario.Backend
	if *scenarios != "all" && *scenarios != "" {
		g.Scenarios = strings.Split(*scenarios, ",")
		b, err := resolveBackend(*backend, g.Scenarios)
		if err != nil {
			return err
		}
		be = b
	} else {
		// "all" means every scenario the backend can execute.
		b, err := scenario.BackendByName(*backend)
		if err != nil {
			return err
		}
		be = b
		for _, sc := range scenario.All() {
			if sc.SupportsBackend(be.Name()) {
				g.Scenarios = append(g.Scenarios, sc.Name)
			}
		}
	}
	if *family != "" {
		kept := g.Scenarios[:0]
		for _, name := range g.Scenarios {
			sc, err := scenario.Lookup(name)
			if err != nil {
				return err
			}
			if sc.HasTag(*family) {
				kept = append(kept, name)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no selected scenario matches family %q (see 'slicebench list')", *family)
		}
		g.Scenarios = kept
	}
	runs, err := g.Expand()
	if err != nil {
		return err
	}
	if *simWorkers > 0 {
		for i := range runs {
			runs[i].Spec.SimWorkers = *simWorkers
		}
	}
	onResult := func(res scenario.RunResult) {
		if !*quiet {
			fmt.Fprintln(errOut, res.Summary())
		}
	}
	r := scenario.Runner{Workers: liveWorkers(*workers, be), DisableTiming: !*timing, Backend: be}
	results := r.Sweep(runs, onResult)
	failed := 0
	for _, res := range results {
		if res.Error != "" {
			failed++
		}
	}
	dst := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	switch *format {
	case "json":
		err = scenario.WriteJSON(dst, results)
	case "csv":
		err = scenario.WriteCSV(dst, results)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, len(results))
	}
	return nil
}
