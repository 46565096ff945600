package main

// metricDef names one reported metric and its unit. The two catalogs
// below are the benchmark's metric contract and match BENCHMARK.json; a
// self-test holds them equal. moves, for a per-layer metric, names the
// end-to-end metric and workload a change to that layer should move;
// later changes cite the pairs by these names.
type metricDef struct{ name, unit, moves string }

// e2eCatalog lists the end-to-end metrics every workload reports from
// its untraced window. latency_ms.p50 is the median of the workload's
// timed operation: detect_ms.p50 on detect-* and reachable_us.p50 (in ms)
// on serve-mixed. The tails (detect_ms.p90, reachable_us.p99,
// update_ms.*) are printed by name but not carried here: on two shared
// vCPUs the read p90 sits where reads start to queue behind the write
// path and update latency answers on the 2 ms /update?wait=1 poll tick,
// so their spread across runs exceeds the bounds this benchmark may set.
var e2eCatalog = []metricDef{
	{"latency_ms.p50", "ms", ""},
	{"setup_s", "s", ""},
	{"mem_peak_mb", "MiB", ""},
}

// layerCatalog lists the per-layer metrics of the traced window. A
// workload that does not exercise a layer reports 0 for its metrics.
var layerCatalog = []metricDef{
	// internal/core: per-phase medians, barrier rounds and scheduler.
	{"core.par_trim_ms", "ms", "detect_ms.* on detect-road"},
	{"core.par_fwbw_ms", "ms", "detect_ms.p50 on detect-road"},
	{"core.par_trim_post_ms", "ms", "detect_ms.* on detect-flickr"},
	{"core.par_wcc_ms", "ms", "detect_ms.* on detect-flickr"},
	{"core.recur_fwbw_ms", "ms", "detect_ms.p50 on detect-flickr"},
	{"core.barrier_rounds", "count", "detect_ms.p50 on detect-road"},
	{"core.tasks", "count", "detect_ms.p90 on detect-flickr"},
	{"core.queue_peak", "count", "detect_ms.p90 on detect-flickr"},
	{"core.parallel_efficiency", "ratio", "detect_ms.p50 on detect-flickr and detect-road"},
	// internal/bfs, internal/trim, internal/wcc.
	{"bfs.levels", "count", "detect_ms.* on detect-road"},
	{"bfs.frontier_nodes", "count", "detect_ms.* on detect-road"},
	{"trim.rounds", "count", "detect_ms.* on detect-road"},
	{"trim.pushes", "count", "detect_ms.* on detect-road"},
	{"trim.trimmed_nodes", "count", "detect_ms.* on detect-road"},
	{"wcc.uf_unions", "count", "detect_ms.p50 on detect-flickr"},
	{"wcc.uf_find_hops", "count", "detect_ms.p50 on detect-flickr"},
	// internal/scratch and the Go runtime.
	{"detect.allocs_per_op", "count", "mem_peak_mb and detect_ms.p90 on detect-*"},
	{"detect.bytes_per_op", "B", "mem_peak_mb and detect_ms.p90 on detect-*"},
	{"scratch.bytes_reused", "B", "mem_peak_mb and detect_ms.p90 on detect-*"},
	{"runtime.gc_cycles", "count", "detect_ms.p90, reachable_us.p99 and update_ms.p99, each on its workload"},
	{"runtime.gc_pause_ms", "ms", "detect_ms.p90, reachable_us.p99 and update_ms.p99, each on its workload"},
	// internal/server.
	{"server.componentof_us.p50", "us", "reachable_us.* on serve-mixed"},
	{"server.componentof_us.p99", "us", "reachable_us.p99 on serve-mixed"},
	{"server.reachable_us.p50", "us", "reachable_us.* on serve-mixed"},
	{"server.reachable_us.p99", "us", "reachable_us.p99 on serve-mixed"},
	{"server.update_us.p50", "us", "update_ms.* on serve-mixed"},
	{"http.overhead_us.p50", "us", "reachable_us.p50 on serve-mixed"},
	{"server.publish_lag_ms.p50", "ms", "update_ms.p50 on serve-mixed"},
	{"server.wait_poll_ms.p50", "ms", "update_ms.p50 on serve-mixed"},
	{"server.shed", "count", "reachable_us.* and update_ms.* on serve-mixed"},
	{"server.epoch_swaps", "count", "update_ms.* on serve-mixed"},
	// Snapshot / scc.Condensed.
	{"snapshot.reachable_us.p50", "us", "reachable_us.* on serve-mixed; nothing on detect-*"},
	{"snapshot.reachable_us.p99", "us", "reachable_us.p99 on serve-mixed; nothing on detect-*"},
	{"snapshot.componentof_ns.p50", "ns", "componentof_us.p50 on serve-mixed; nothing on detect-*"},
	{"snapshot.dag_nodes", "count", "reachable_us.* on serve-mixed"},
	{"snapshot.dag_edges", "count", "reachable_us.* on serve-mixed"},
	// internal/incr.
	{"incr.epoch_us.p50", "us", "update_ms.p50 on serve-mixed"},
	{"incr.epoch_us.p99", "us", "update_ms.p99 on serve-mixed"},
	{"incr.full_build_ms.p50", "ms", "update_ms.p99 on serve-mixed"},
	{"incr.epochs", "count", "update_ms.* on serve-mixed"},
	{"incr.full_rebuilds", "count", "update_ms.p99 on serve-mixed"},
	{"incr.verify_runs", "count", "update_ms.p99 on serve-mixed"},
	{"incr.fallbacks", "count", "update_ms.p99 on serve-mixed"},
	{"incr.divergence", "count", "must stay 0; a divergence fails the run"},
	{"incr.intra_inserts", "count", "update_ms.* on serve-mixed"},
	{"incr.dag_inserts", "count", "update_ms.* on serve-mixed"},
	{"incr.cycle_merges", "count", "update_ms.* on serve-mixed"},
	{"incr.noop_deletes", "count", "update_ms.* on serve-mixed"},
	{"incr.dag_deletes", "count", "update_ms.* on serve-mixed"},
	{"incr.partials", "count", "update_ms.p99 on serve-mixed"},
	{"incr.noops", "count", "update_ms.* on serve-mixed"},
	// internal/durable.
	{"wal.write_us.p50", "us", "update_ms.p99 on serve-mixed"},
	{"wal.write_us.p99", "us", "update_ms.p99 on serve-mixed"},
	{"wal.fsync_us.p50", "us", "update_ms.p99 on serve-mixed"},
	{"wal.fsyncs", "count", "update_ms.p99 on serve-mixed"},
	{"wal.bytes", "B", "update_ms.p99 on serve-mixed"},
	{"snapshot.write_ms.p50", "ms", "update_ms.p99 on serve-mixed (appends wait for it)"},
	{"snapshot.writes", "count", "update_ms.p99 on serve-mixed"},
	// The load generator and the tracer themselves.
	{"bench.gen_lag_ms.p99", "ms", "nothing; validates the open loop"},
	{"trace.overhead_pct", "%", "nothing; traced over untraced latency_ms.p50"},
}
