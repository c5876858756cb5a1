package main

// The metric tables mirror BENCHMARK.json (bench_test.go checks that they
// agree). A run with tracing off prints every end-to-end metric; a traced
// run prints every per-layer metric.

type metricDecl struct{ name, unit string }

// End-to-end metrics. Every workload produces every one of them, because
// the driver gates each (workload, metric) pair: ops_per_s and op_ms_*
// are node-cycles and timed Step calls on the engine workloads, answered
// queries and query latency on serve-mixed-1k (README, "End-to-end
// metrics").
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"heap_bytes_per_node", "B"},
	{"final_sdm_ratio", "ratio"},
}

// Per-layer metrics, prefixed with the package that does the work. A
// layer that is not on a workload's path reads 0 there: it did no work.
var perLayer = []metricDecl{
	{"sim.new_ms", "ms"},
	{"sim.membership_ns_per_node_cycle", "ns"},
	{"sim.protocol_ns_per_node_cycle", "ns"},
	{"sim.measure_ns_per_node_cycle", "ns"},
	{"sim.churn_ns_per_event", "ns"},
	{"sim.cycle_ms_p90", "ms"},
	{"sim.step_unaccounted_frac", "ratio"},
	{"sim.arena_bytes_per_node", "B"},
	{"sim.state_bytes_per_node", "B"},
	{"sim.staging_bytes_per_node", "B"},
	{"sim.view_msgs_per_node_cycle", "count"},
	{"sim.swap_msgs_per_node_cycle", "count"},
	{"sim.rank_updates_per_node_cycle", "count"},
	{"sim.dropped_msgs_per_node_cycle", "count"},
	{"sim.swap_success_ratio", "ratio"},
	{"sim.alloc_bytes_per_cycle", "B"},
	{"sim.parallel_speedup", "ratio"},

	{"view.merge_hot_ns", "ns"},
	{"view.merge_cold_ns", "ns"},
	{"view.merge_fresh_hot_ns", "ns"},
	{"view.bytes_per_entry", "B"},

	{"ordering.tick_fast_converged_ns", "ns"},
	{"ordering.tick_fast_unconverged_ns", "ns"},
	{"ordering.tick_ref_unconverged_ns", "ns"},
	{"ordering.apply_swap_ns", "ns"},

	{"ranking.tick_fast_ns", "ns"},
	{"ranking.tick_ref_ns", "ns"},
	{"ranking.apply_update_counter_ns", "ns"},
	{"ranking.apply_update_window_ns", "ns"},

	{"membership.cyclon_exchange_ns", "ns"},
	{"membership.newscast_exchange_ns", "ns"},

	{"metrics.sdm_ns_per_node", "ns"},
	{"metrics.gdm_ns_per_node", "ns"},

	{"runtime.new_cluster_ms", "ms"},
	{"runtime.advance_us_per_msg", "us"},
	{"runtime.msgs_per_node_cycle", "count"},
	{"runtime.dropped_frac", "ratio"},
	{"runtime.alloc_bytes_per_msg", "B"},
	{"runtime.cycle_ms_p90", "ms"},
	{"runtime.telemetry_overhead_frac", "ratio"},

	{"serving.sliceof_ns", "ns"},
	{"serving.topk_ns", "ns"},
	{"serving.snapshot_ns", "ns"},
	{"serving.encode_ns", "ns"},
	{"serving.bytes_per_answer", "B"},
	{"serving.alloc_bytes_per_query", "B"},
	{"serving.handler_ns", "ns"},
	{"serving.http_rtt_ns", "ns"},
	{"serving.http_overhead_frac", "ratio"},
	{"serving.mean_bound", "ratio"},
	{"serving.max_bound", "ratio"},
	{"serving.telemetry_overhead_frac", "ratio"},
	{"serving.query_ms_p99", "ms"},

	{"loadgen.late_frac", "ratio"},
	{"loadgen.achieved_rate", "1/s"},

	{"trace.overhead_frac", "ratio"},
}

// orderMetrics rewrites r.Metrics in the declared order, filling 0 for
// per-layer metrics the workload did not produce. A metric the tables do
// not declare is a programming error.
func orderMetrics(r *Result) {
	decls := endToEnd
	if r.Trace {
		decls = perLayer
	}
	have := make(map[string]Metric, len(r.Metrics))
	for _, m := range r.Metrics {
		have[m.Name] = m
	}
	out := make([]Metric, 0, len(decls))
	for _, d := range decls {
		m, ok := have[d.name]
		if !ok {
			if !r.Trace {
				panic("benchmark: workload " + r.Workload + " did not produce " + d.name)
			}
			m = Metric{Name: d.name, Unit: d.unit}
		}
		if m.Unit != d.unit {
			panic("benchmark: metric " + d.name + " has unit " + m.Unit + ", declared " + d.unit)
		}
		delete(have, d.name)
		out = append(out, m)
	}
	for name := range have {
		panic("benchmark: undeclared metric " + name)
	}
	r.Metrics = out
}
