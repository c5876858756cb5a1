// Package slicing implements distributed ordered slicing for large-scale
// dynamic peer-to-peer systems, reproducing "Distributed Slicing in
// Dynamic Systems" (Fernández, Gramoli, Jiménez, Kermarrec, Raynal;
// ICDCS 2007).
//
// # The problem
//
// n nodes each hold an attribute value (bandwidth, uptime, storage…).
// The network must partition itself into slices — adjacent intervals of
// the normalized rank domain (0,1], e.g. "the top 20% by bandwidth" —
// with every node determining its own slice, with no central
// coordination, under churn.
//
// # The protocols
//
// Two gossip protocols are provided:
//
//   - Ordering (JK and the paper's improved mod-JK): nodes draw uniform
//     random values once and gossip-swap them until their order matches
//     the attribute order; a node's slice is read off its random value.
//     Fast, but the slice assignment inherits the unevenness of the
//     random draw and cannot recover when churn is correlated with the
//     attribute.
//   - Ranking: nodes statistically estimate their own rank as the
//     fraction of observed attribute values below their own (optionally
//     over a sliding window). Converges more slowly but keeps improving,
//     and tracks attribute-correlated churn.
//
// Both run over a peer-sampling substrate (the paper's Cyclon variant,
// or in the simulator a uniform oracle) and are implemented as
// transport-agnostic state machines, executable two ways:
//
//   - Simulated: a deterministic cycle-based engine (the paper's
//     PeerSim model) via Simulate, reproducing every figure of the
//     paper's evaluation — see cmd/slicebench.
//   - Live: clusters of real protocol participants multiplexed onto a
//     sharded scheduler via NewCluster (10,000+ gossiping nodes in one
//     process), or standalone goroutine-per-node processes via NewNode
//     over a TCP transport — see cmd/slicenode.
//
// # Engines and backends
//
// The two execution regimes sit behind one abstraction: a
// ScenarioBackend runs a ScenarioSpec either on the simulator
// (SimScenarioBackend — logical cycles, atomic exchanges, bit-exact
// per seed) or on the live runtime (LiveScenarioBackend — a real
// cluster with interleaved gossip, churn applied as actual joins and
// crashes on the spec's schedule, and seeded latency/loss injection
// from the spec's live block). Both return the same result shape, so
// the slice-disorder trajectory of a live cluster is directly
// comparable, cycle for cycle, with its simulation — the asynchronous
// regime §4.5.2 of the paper approximates with artificial overlap
// probabilities is measured here natively.
//
// The live runtime's cluster core is a sharded scheduler: a fixed
// worker pool (one worker per shard) drains per-shard timer wheels of
// node ticks and message deliveries, so a cluster costs O(shards)
// goroutines instead of O(nodes). Behind the LiveClock abstraction a
// cluster runs on the wall clock or — handed a VirtualClock — in
// driven virtual time, where Cluster.Advance executes each period's
// work concurrently and returns without sleeping: live evaluation runs
// and tests are compute-bound, not period-bound.
//
// The simulator itself is also multi-core: each cycle executes as
// compute/commit rounds — per-node counter-based RNG streams make
// every node's draws independent of iteration order, computes fan out
// over SimConfig.Workers goroutines against immutable start-of-round
// snapshots, and commits apply mutations in deterministic slot order.
// Results are bit-identical at ANY worker count (the worker-count
// invariance contract), so Workers — a SimConfig field, the
// ScenarioSpec's SimWorkers knob, and slicebench's -simworkers flag —
// is purely a throughput dial: sweeps parallelize across runs, one big
// run parallelizes across cores.
//
// # Attribute distributions
//
// Both execution modes draw node attributes from an AttrSource. The
// protocols are distribution-free — only the attribute rank matters —
// so skewed sources exist to stress that claim and to model realistic
// capability workloads: UniformDist, ParetoDist, ExponentialDist,
// NormalDist, LogNormalDist, ZipfDist, MixtureDist (multi-modal
// fleets) and EmpiricalDist (histogram replay of measured profiles,
// via NewEmpiricalDist). Every source also implements AttrDistribution,
// exposing the analytic CDF and Quantile of its law: Quantile(b) is
// the true attribute threshold of a slice boundary b, and CDF(x) is
// the asymptotic normalized rank of attribute x — the closed-form
// references a skewed-attribute run's slice assignment can be compared
// against.
//
// # Scenarios
//
// Every evaluation workload is a declarative entry in the scenario
// catalog: a Scenario is a named family of ScenarioSpecs — one per curve
// of a paper figure (fig4-*, fig6-*) or extension workload (heavytail,
// bimodal, flash-crowd, mass-departure, slice-oscillation) — and each
// spec is a JSON-serializable description of one run that translates
// into a SimConfig via its Config method. Scenarios, ScenarioNames and
// LookupScenario expose the catalog; cmd/slicebench lists, runs and
// sweeps it (scenario grids fan out across a worker pool with
// deterministic per-run seeds), and the examples are thin wrappers over
// the same entries. A figure family also states the paper's claims
// about its curves as data (Scenario.Claims), which `slicebench run`
// checks on either engine. The scale-10k, scale-50k, scale-100k and
// scale-1m families push the simulation engine well past the paper's
// N=10,000 evaluation ceiling — both protocols, static and churning, at
// up to 1,000,000 nodes. The engine
// itself is a struct-of-arrays arena: per-node state in parallel slices
// addressed by slot, all view storage flattened into one backing array,
// per-worker scratch instead of per-node buffers — ~1.8 kB per node of
// engine state, which is what makes the million-node tier fit a laptop.
//
// Speed is measured in one place: benchmark/, a module of its own run
// as `bash benchmark/run.sh` (`make bench`). Four workloads — the sim
// engine at N=1,000,000 and at N=100,000 under churn, a 10,000-node
// live cluster, and the query plane over loopback HTTP — report set-up
// time apart from steady-state throughput, step latency, heap bytes
// per node and final disorder, plus a per-layer ledger from a traced
// run; `bash benchmark/run.sh compare A.json B.json` judges two result
// sets against the bounds in BENCHMARK.json. Every performance number
// the README quotes is copied from that output.
//
// # Robustness: the fault plane
//
// A spec's Faults block opts a run into seeded, deterministic fault
// injection, shared by both backends: attribute drift (a cohort's real
// attributes random-walk, step, or oscillate mid-run), byzantine
// misreporting (an f-fraction lies always-top, at random, or
// collusively onto a target slice, graded per cycle by the pollution
// series — the liar-held fraction of the slice they target), scheduled
// network partitions (cross-group traffic black-holed for a window,
// then healed), and message chaos (loss bursts, duplication, delay
// spikes). Cohorts, drift steps, lies and partition groups are pure
// hashes of seed, node and cycle, and drift and lies go through one
// fault.Applier that both engines call, so they are identical on both.
// Message loss, duplication and delay are one pure hash of the message
// (fault.Chaos.Decide), drawn from no engine stream; only the message
// key differs between engines. A faulted sim run is
// bit-reproducible at any worker count, and windows scale with the run,
// so a 0.1-scale sweep keeps the fault structure. The chaos-drift,
// chaos-byzantine, chaos-partition and chaos-messages scenario families
// exercise the plane end to end, and TestChaosRecoveryGates pins their
// recovery behavior in tier-1 (see the README's Robustness section).
//
// # Serving: the query plane
//
// Beyond reproducing the paper, the package answers slice queries at
// runtime. A SliceQuerier serves "which slice is attribute x?"
// (SliceOf), "who is in the top k%?" (TopK), and point-in-time
// Snapshots from a node's purely local estimate — no global view is
// ever assembled — and streams slice-boundary crossings via
// WatchBoundary. Three implementations exist: NewNodeQuerier (one live
// node), NewClusterQuerier (round-robin over a cluster), and
// NewSimQuerier (oracle-grade answers from a simulation engine, used to
// validate the live path). Every answer carries a Staleness block
// combining the Theorem 5.1 Wald confidence interval on the node's rank
// estimate with a calibrated residual disorder floor (inflated while
// the protocol is still warming up), so callers can tell a converged
// answer from a guess. Two health flags ride along: Warming marks a
// node younger than the calibration's warmup grace, and Degraded marks
// a node whose passive thread has been starved of incoming messages
// past the calibration's patience — the partition signature — which
// also flips /healthz to a 503 "degraded" state so load balancers stop
// routing to a node answering from a minority partition.
//
// NewQueryServer exposes a querier over HTTP/JSON — GET /slice, /topk,
// /snapshot, /healthz, and an SSE stream at /watch — and its Shutdown
// drains in-flight requests and open streams before returning; a node
// leaving the serving plane is an ordinary churn event to the protocol.
// cmd/slicenode mounts this with its -serve flag, and the benchmark's
// serve-mixed-1k workload load-tests it (throughput, latency and the
// staleness bounds the answers carried).
//
// # Observability
//
// Every layer reports into an optional, stdlib-only telemetry plane.
// NewTelemetry builds a metrics Registry (atomic counters, gauges and
// fixed-bucket histograms with a Prometheus text-format HTTP handler
// and expvar mirroring); WithTelemetry attaches it to a node or
// cluster, SimConfig.Telemetry to a simulation, and ServeOptions.
// Telemetry to a query server, which then mounts GET /metrics.
// Metric families cover the scheduler (queue depth, timer lag,
// delivered/dropped messages, delivery latency, churn), the per-node
// protocol state (rank estimate, slice, view length, sends), the
// serving plane (per-endpoint latency and errors, SSE subscribers,
// staleness bounds, watch drops) and the simulator (per-cycle SDM/GDM
// gauges, per-phase timings). The name set is locked additive-only by
// a golden test; attaching telemetry to a simulation never perturbs
// it — instrumented runs are bit-identical to plain ones.
//
// NewTraceRing builds a fixed-capacity ring of protocol decision events
// (TraceViewExchange, TraceSwapApplied, TraceBoundaryCross,
// TraceRankUpdate, …); WithTrace shares one ring across a cluster's
// nodes and a served node dumps it as JSON at GET /debug/trace.
// WithDebug mounts net/http/pprof on the same mux. Diagnostics in the
// binaries flow through log/slog behind shared -log-level/-log-format
// flags.
//
// # Facade layout and API stability
//
// The public API is a facade over internal engines, split into themed
// sections, one file per section: slicing.go (the §3 domain model),
// simulate.go (the cycle engine), live.go (the runtime and transports),
// scenarios.go (the declarative catalog), serve.go (the query plane),
// options.go (functional options: WithPeriod, WithJitter, WithServe,
// and the ServedNode/ServedCluster wrappers returned by NewNodeWith and
// NewClusterWith), and analytic.go (the Lemma 4.1 / Theorem 5.1 closed
// forms). The exported surface is locked additive-only by a golden test
// (api_surface_test.go): removing or re-typing an identifier fails the
// build's test gate, and deliberate surface changes are blessed with
// `go test -run TestAPISurface -update`.
//
// # Quick start
//
//	part, _ := slicing.EqualSlices(10)
//	res, _ := slicing.Simulate(slicing.SimConfig{
//		N: 10000, Slices: 10, ViewSize: 20,
//		Protocol: slicing.Ranking,
//		AttrDist: slicing.UniformDist{Lo: 0, Hi: 1000},
//		Seed:     1,
//	}, 200)
//	last, _ := res.SDM.Last()
//	fmt.Printf("slice disorder after 200 cycles: %.0f\n", last.Value)
//	_ = part
//
// See the examples directory for live-cluster usage.
package slicing
