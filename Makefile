# .github/workflows/ci.yml runs the targets of `make ci`, one step
# each: `make ci` locally is the same bar the PR gate applies.

GO ?= go

.PHONY: all build test test-serial bench bench-check bench-pairs fuzz profile lint ci

all: build

build:
	$(GO) build ./...
	$(GO) build ./examples/...

# -count=1: goroutine interleavings differ run to run, so a cached "ok"
# hides races.
test:
	$(GO) test -race -count=1 ./...

# Tier-1 again at fixed core counts: the sim engine promises
# bit-identical results at any worker count on any scheduler, and the
# live runtime defaults its shard count to GOMAXPROCS. -count=1 because
# the Go test cache does not key on GOMAXPROCS.
test-serial:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -count=1 ./... || exit 1; done

# The one place a speed number comes from: four workloads, setup split
# from steady state, results appended to benchmark/out/results.json.
# Judge two result sets with
#   bash benchmark/run.sh compare A.json B.json
# (see benchmark/README.md).
bench:
	bash benchmark/run.sh

# Seed-matched pairs of one workload, the way a performance change is
# judged: the committed revision BASE is exported with git archive into
# a temporary directory (the working tree is not touched), then for each
# seed in SEEDS the base and the working tree each run the workload
# once, interleaved, alternating which side goes first, into
# benchmark/out/pairs-<workload>-base.json and -work.json (both
# replaced), and `compare` judges the two sets. Each side builds its own
# benchmark binary from its own source. Not part of `make ci`, e.g.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=sim-ordering-1m SEEDS="1 2 3 4 5"
BASE ?= HEAD
WORKLOAD ?= sim-ordering-1m
SEEDS ?= 1 2 3 4 5
bench-pairs:
	@base=$$(mktemp -d) && trap 'rm -rf "$$base"' EXIT && \
	git archive $(BASE) | tar -x -C "$$base" && \
	mkdir -p benchmark/out && \
	a="$(CURDIR)/benchmark/out/pairs-$(WORKLOAD)-base.json" && \
	b="$(CURDIR)/benchmark/out/pairs-$(WORKLOAD)-work.json" && \
	rm -f "$$a" "$$b" && first=base && \
	for seed in $(SEEDS); do \
		if [ $$first = base ]; then order="base work"; first=work; else order="work base"; first=base; fi; \
		for side in $$order; do \
			echo "== seed $$seed: $$side"; \
			if [ $$side = base ]; then \
				bash "$$base/benchmark/run.sh" -workload $(WORKLOAD) -seed $$seed -out "$$a" || exit 1; \
			else \
				bash benchmark/run.sh -workload $(WORKLOAD) -seed $$seed -out "$$b" || exit 1; \
			fi; \
		done; \
	done && \
	bash benchmark/run.sh compare "$$a" "$$b"

# The benchmark's self-test (its workloads run small and its checks and
# compare verdicts are exercised), then one iteration of every
# micro-benchmark to prove they still run; -short skips the n=1,000,000
# EngineScaling rows, which sim-ordering-1m covers.
bench-check:
	cd benchmark && $(GO) test ./...
	$(GO) test -short -bench=. -benchtime=1x -run='^$$' ./...

# Every Fuzz* target for FUZZTIME each, mutating from the corpus under
# its package's testdata/fuzz/ (which plain `go test` already replays).
# `go test -fuzz` takes one package and one target at a time. Not part
# of `make ci`: a crasher it finds is committed as a corpus entry with
# its fix.
FUZZTIME ?= 30s
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Where the time and the bytes go inside one run (the benchmark says how
# much there is): capture CPU + heap profiles of a spec (defaults: the
# N=100k runs, 10 cycles, serial engine) and print the top-20 flat and
# top-15 cumulative CPU reports and the top-10 in-use and allocated heap
# reports (the second shows where the run's garbage comes from), e.g.
#   make profile PROFILE_SPEC=scale-1m PROFILE_CYCLES=5
# -workers 1 runs the spec's variants one after another: two at a time,
# one cpu.prof interleaves an ordering and a ranking engine and every
# hotspot reads at half its share of the run it belongs to.
# The heap profile is taken at the end of the last run while its engine
# is still alive; a profile with under 1 MB in use allocated from
# internal/ means the capture missed it, and the target fails (`make ci`
# runs it small for that).
# cpu.prof / mem.prof land in the working tree (gitignored); drill past
# the flat reports with `go tool pprof cpu.prof`.
PROFILE_SPEC ?= scale-100k
PROFILE_CYCLES ?= 10
PROFILE_SIMWORKERS ?= 1
profile:
	$(GO) run ./cmd/slicebench run $(PROFILE_SPEC) -cycles $(PROFILE_CYCLES) \
		-workers 1 -simworkers $(PROFILE_SIMWORKERS) -cpuprofile cpu.prof -memprofile mem.prof \
		-format csv
	$(GO) tool pprof -top -nodecount=20 cpu.prof
	$(GO) tool pprof -top -cum -nodecount=15 cpu.prof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=10 mem.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=10 mem.prof
	@$(GO) tool pprof -sample_index=inuse_space -top -unit=B -nodefraction=0 \
		-focus='slicing/internal/' mem.prof | \
		awk '/accounting for/ { b = $$5 + 0 } END { if (b < 1e6) { \
		print "mem.prof: " b " B in use under internal/ (< 1 MB): the heap capture missed the engine" > "/dev/stderr"; exit 1 } }'

# benchmark/ is its own module, invisible to the root `go vet ./...`,
# and it is where a re-shaped pinned entry point (Arena.Block, NewBound,
# MergeReply, TickSwapFast) breaks first. internal/core carries the one
# amd64 assembly file (prefetch_amd64.s, used by the sim's exchange and
# protocol rounds and the live scheduler) with a no-op fallback
# elsewhere: the arm64 vet proves the fallback compiles, and the 386 run
# drives the no-op path through the primitive's own test, the sim
# determinism suites (the lookahead edge cases among them) and the
# live timer wheel's order test on an amd64 host, together with the
# tests that pin each fast kernel to its reference.
# The math/rand ratchet: outside benchmark/, only the non-test files in
# RAND_FILES may import math/rand. Moving a file onto core.Stream takes
# it off the list; nothing puts one back.
RAND_FILES = internal/churn/churn.go internal/dist/continuous.go internal/dist/dist.go \
	internal/dist/mixture.go internal/runtime/cluster.go internal/runtime/sched.go \
	internal/scenario/livecluster.go internal/sim/sim.go
# The 386 leg's tests, joined into one -run regexp. Each name must match
# a test or fuzz target that `go test -list` finds in LINT386_PKGS, so
# renaming or deleting one fails lint instead of silently dropping it
# from the leg.
LINT386_TESTS = TestPrefetchWindow TestEventHeapOrder TestWorkerCountInvariance TestKernelEquivalence \
	TestTickSwapFastMatchesTickSwap TestTickTableMatchesTickSwap TestTickTargetsFastMatchesTickTargets \
	TestAgeAllOldestMatchesTwoStep TestResetMatchesClearAdd FuzzCyclonMerge FuzzCyclonExchange
LINT386_PKGS = ./internal/core ./internal/sim ./internal/runtime ./internal/ordering ./internal/ranking \
	./internal/view ./internal/membership
empty :=
space := $(empty) $(empty)
# The dead-code gate: reach_test.go (build tag reach) walks the
# type-checked reference graph from cmd/, examples/, benchmark/ and the
# facade's exported names, and fails on a declaration nothing reaches
# unless testdata/unreachable.allow lists it (test oracles that tests in
# two or more packages call). Delete what it finds rather than extend the
# list.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	@out=$$(grep -rl --include='*.go' '"math/rand"' . | sed 's|^\./||' | grep -v -e '_test\.go$$' -e '^benchmark/' | \
		grep -vxF $(addprefix -e ,$(RAND_FILES))); if [ -n "$$out" ]; then \
		echo "math/rand imported outside RAND_FILES:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) test -tags reach -run '^TestReachability$$' .
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@listed=$$(GOARCH=386 $(GO) test -list . $(LINT386_PKGS) | grep -E '^(Test|Fuzz)'); \
	for name in $(LINT386_TESTS); do \
		echo "$$listed" | grep -q -- "$$name" || { \
		echo "386 leg: $$name matches no test or fuzz target in its packages" >&2; exit 1; }; \
	done
	GOARCH=386 $(GO) test -short -count=1 -run '$(subst $(space),|,$(strip $(LINT386_TESTS)))' $(LINT386_PKGS)

# The profile step is a smoke test of the profiling path itself.
ci: lint build test test-serial bench-check bench
	$(MAKE) profile PROFILE_SPEC=scale-10k PROFILE_CYCLES=2
