package slicing

import (
	"os"
	"os/exec"
	"testing"
)

// benchmark/ is a module of its own (it measures this one from outside
// and BENCHMARK.json pins its files), so the root `go test ./...` never
// descends into it. This test does: it runs the nested module's own
// tests against the working tree, so renaming a kernel the benchmark
// calls by name fails tier-1 here instead of rotting benchmark/ unseen.
// The environment matches benchmark/run.sh: no workspace, no inherited
// flags, nothing fetched.
func TestBenchmarkSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nested benchmark module's tests (~7 s)")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cmd := exec.Command(goBin, "test", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cd benchmark && go test ./...: %v\n%s", err, out)
	}
}
