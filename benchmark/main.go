// Command benchmark is the one place performance claims about this
// repository are measured: four workloads over both engines and the
// query plane, end-to-end metrics with fixed regression bounds, and a
// per-layer ledger taken from outside the program. See README.md.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errChecksFailed makes the process exit non-zero after the results
// (which name the failed checks) were printed.
var errChecksFailed = errors.New("correctness checks failed")

func run(args []string, out, errOut io.Writer) error {
	// The manifest is needed by every mode — the default window, the
	// bounds compare judges by — and its absence means the benchmark was
	// started outside the repository it measures.
	man, err := loadManifest()
	if err != nil {
		return err
	}
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(man, args[1:], out)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", man.RunSeconds, "length of the timed window; fixes the number of timed cycles")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run with per-layer metrics (with -workload all: both runs)")
	outFile := fs.String("out", filepath.Join("benchmark", "out", "results.json"),
		"result set to append to (one JSON object per run); trace-<workload>.json lands next to it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", *trace)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, kernels: fullKernels}
	if *name == "all" {
		return runAll(o, *outFile, out, errOut)
	}
	w, err := findWorkload(*name, o.seed)
	if err != nil {
		return err
	}
	return runOne(w, o, *outFile, out)
}

// measure runs one workload in this process and returns its metrics in
// declared order.
func measure(w workload, o options) (*Result, *tracer, error) {
	run := runSim
	switch w.kind {
	case kindLive:
		run = runLive
	case kindServe:
		run = runServe
	}
	res, tr, err := run(w, o)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	orderMetrics(res)
	return res, tr, nil
}

// runOne measures one workload and prints the metrics, ending with the
// one-line JSON object the driver reads.
func runOne(w workload, o options, outFile string, out io.Writer) error {
	res, tr, err := measure(w, o)
	if err != nil {
		return err
	}
	if tr != nil {
		path, err := tr.write(filepath.Dir(outFile), o.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d spans)\n", path, len(tr.spans))
	}
	if err := appendResult(outFile, res); err != nil {
		return err
	}
	res.printHuman(out)
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if _, failed := res.totals(); failed > 0 {
		return errChecksFailed
	}
	return nil
}

// runAll runs every workload in a child process of its own, so heap and
// GC state of one never leak into the next, relaying what they print.
// With tracing asked for, each workload runs twice — tracing off, then
// traced — so that one command prints every metric.
func runAll(o options, outFile string, out, errOut io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := currentEnv()
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d go=%s seed=%d seconds=%d trace=%t cpu=%q\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, o.seed, o.seconds, o.trace, env.CPU)
	traceArgs := []string{"0"}
	if o.trace {
		traceArgs = append(traceArgs, "1")
	}
	failed := false
	for _, w := range workloads(o.seed) {
		for _, traceArg := range traceArgs {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", traceArg, "-out", outFile)
			cmd.Stdout, cmd.Stderr = out, errOut
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(errOut, "benchmark: %s: %v\n", w.name, err)
				failed = true
			}
		}
	}
	if failed {
		return errChecksFailed
	}
	return nil
}

// cpuModel reads the CPU model name where the OS offers it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
