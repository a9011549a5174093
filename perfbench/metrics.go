package main

// metricDef is one metric the benchmark reports. End-to-end metrics
// (layer false) are printed by untraced runs and every workload measures
// each of them; per-layer metrics are printed by traced runs, as 0 on a
// workload that never calls the layer. BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatchesMetricTable keeps them equal).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  bool
}

var metricDefs = []metricDef{
	// End to end. "Operation" is the workload's user call: a fit, a join,
	// or one HTTP request of the open-loop traffic (README.md, "Metrics").
	{"setup_s", "s", "lower", false},
	{"op_p50_ms", "ms", "lower", false},
	{"work_per_s", "1/s", "higher", false},
	{"quality", "ratio", "higher", false},
	{"live_heap_mb", "MiB", "lower", false},

	// Whole-run figures too noisy on a shared 2-CPU machine to gate.
	{"op_p99_ms", "ms", "lower", true},
	{"peak_rss_mb", "MiB", "lower", true},

	// core: LSH-DDP driver and centralized step.
	{"core.distance_computations", "count", "lower", true},
	{"core.cluster_s", "s", "lower", true},
	{"core.job.ddp-dc-sample.wall_s", "s", "lower", true},
	{"core.job.lsh-ddp-rho.wall_s", "s", "lower", true},
	{"core.job.lsh-ddp-rho-agg.wall_s", "s", "lower", true},
	{"core.job.lsh-ddp-delta.wall_s", "s", "lower", true},
	{"core.job.lsh-ddp-delta-agg.wall_s", "s", "lower", true},
	// mapreduce: task phases (summed task time) and logical shuffle volume.
	{"mapreduce.shuffle_bytes", "bytes", "lower", true},
	{"mapreduce.phase.map_s", "s", "lower", true},
	{"mapreduce.phase.sort_s", "s", "lower", true},
	{"mapreduce.phase.shuffle_s", "s", "lower", true},
	{"mapreduce.phase.fetch_s", "s", "lower", true},
	{"mapreduce.phase.reduce_s", "s", "lower", true},
	// mapreduce/rpcmr: wire traffic and reduce-side skew.
	{"rpcmr.wire_bytes", "bytes", "lower", true},
	{"rpcmr.reduce_max_over_median", "ratio", "lower", true},
	{"rpcmr.stragglers", "count", "lower", true},
	// mapreduce/dag: scheduler.
	{"dag.nodes", "count", "lower", true},
	{"dag.stage_bytes", "bytes", "lower", true},
	// knnjoin.
	{"knnjoin.candidates", "count", "lower", true},
	{"knnjoin.fallbacks", "count", "lower", true},
	{"knnjoin.certified_frac", "ratio", "higher", true},
	{"knnjoin.job.knn-candidates.wall_s", "s", "lower", true},
	{"knnjoin.job.knn-merge.wall_s", "s", "lower", true},
	{"knnjoin.job.knn-exact.wall_s", "s", "lower", true},
	// lsh, serve, kernels, model: per-query layer calls timed from outside.
	{"lsh.keys_us", "us", "lower", true},
	{"serve.candidates_us", "us", "lower", true},
	{"serve.candidates_per_query", "count", "lower", true},
	{"kernels.scan_us", "us", "lower", true},
	{"serve.assign_us", "us", "lower", true},
	{"serve.http_overhead_us", "us", "lower", true},
	{"serve.batch_points", "count", "higher", true},
	{"serve.busy_frac", "ratio", "lower", true},
	{"serve.exact_fallback_frac", "ratio", "lower", true},
	{"serve.shed_frac", "ratio", "lower", true},
	{"serve.engine_build_s", "s", "lower", true},
	{"model.export_s", "s", "lower", true},
	{"serve.read_p50_ms", "ms", "lower", true},
	{"serve.read_p99_ms", "ms", "lower", true},
	{"serve.read_qps", "1/s", "higher", true},
	{"serve.label_agree", "ratio", "higher", true},
	// ingest.
	{"ingest.http_p50_ms", "ms", "lower", true},
	{"ingest.http_p99_ms", "ms", "lower", true},
	{"ingest.append_us", "us", "lower", true},
	{"ingest.wal_bytes_per_point", "bytes", "lower", true},
	{"ingest.merge_us", "us", "lower", true},
	{"ingest.delta_rows_per_query", "count", "lower", true},
	{"ingest.compact_s", "s", "lower", true},
	{"ingest.compactions", "count", "lower", true},
	// Self time per layer: span time not covered by child spans.
	{"self.core_s", "s", "lower", true},
	{"self.knnjoin_s", "s", "lower", true},
	{"self.dag_s", "s", "lower", true},
	{"self.mapreduce_s", "s", "lower", true},
	{"self.rpcmr_s", "s", "lower", true},
	{"self.lsh_s", "s", "lower", true},
	{"self.serve_s", "s", "lower", true},
	{"self.kernels_s", "s", "lower", true},
	{"self.ingest_s", "s", "lower", true},
	{"self.http_s", "s", "lower", true},
	// The benchmark itself: tracing cost and open-loop generator health.
	{"trace.overhead_frac", "ratio", "lower", true},
	{"trace.spans", "count", "lower", true},
	{"bench.gen_late_p99_ms", "ms", "lower", true},
}
