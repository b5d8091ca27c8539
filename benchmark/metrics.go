package main

// The metric manifest: every name the benchmark emits, with its unit, its
// direction and, for an end-to-end metric, the bound by which it may get
// worse. BENCHMARK.json is printed from these tables (-manifest) and the
// smoke test holds the two equal.

// metricDef describes one metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics. The driver has every workload report
// every one of them, never as 0, so they are the ones all six have. No timing
// but set-up is among them: the issue demotes an end-to-end metric whose
// spread over ten runs exceeds its bound, and on this sandbox, whose speed
// drifts by a fifth to a third for minutes at a time whatever the program
// does, every throughput and latency exceeded the issue's 0.10 and, in one
// set of ten in three, the driver's largest bound of 0.25 (README.md has the
// tables). They are the client.* metrics below, under the issue's names.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
}

// perLayer are the ungated metrics of the traced run, layer = module name.
// A layer a workload bypasses reads 0.
var perLayer = []metricDef{
	// client: what a caller sees per class, and the wire's share of it.
	{Name: "client.read_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.point_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.point_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.range_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.agg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.topk_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.scan_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ingest_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.delivery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.delivery_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.failed_ops_share", Unit: "ratio", Better: "lower"},
	{Name: "client.wire_us.point", Unit: "us", Better: "lower"},
	{Name: "client.wire_us.scan", Unit: "us", Better: "lower"},
	{Name: "client.generator_lag_ms", Unit: "ms", Better: "lower"},
	// server
	{Name: "server.frame_decode_us", Unit: "us", Better: "lower"},
	{Name: "server.admission_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "server.decode_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "server.ingest_codec_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.canceled", Unit: "count", Better: "lower"},
	{Name: "server.in_flight_peak", Unit: "count", Better: "lower"},
	// shard
	{Name: "shard.scatter_overhead_us.point", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_overhead_us.agg", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_overhead_us.topk", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_overhead_us.scan", Unit: "us", Better: "lower"},
	{Name: "shard.partial_rows_per_query", Unit: "count", Better: "lower"},
	{Name: "shard.digests_per_delivery", Unit: "count", Better: "lower"},
	{Name: "shard.cross_comparisons_per_delivery", Unit: "count", Better: "lower"},
	{Name: "shard.cross_merges", Unit: "count", Better: "higher"},
	{Name: "shard.exchange_rounds", Unit: "count", Better: "lower"},
	// core
	{Name: "core.plan_us", Unit: "us", Better: "lower"},
	{Name: "core.execute_us.point", Unit: "us", Better: "lower"},
	{Name: "core.execute_us.range", Unit: "us", Better: "lower"},
	{Name: "core.execute_us.agg", Unit: "us", Better: "lower"},
	{Name: "core.execute_us.topk", Unit: "us", Better: "lower"},
	{Name: "core.execute_us.scan", Unit: "us", Better: "lower"},
	{Name: "core.plan_cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.mat_cache_hit_rate", Unit: "ratio", Better: "higher"},
	// query
	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.rows_in_per_row_out.point", Unit: "ratio", Better: "lower"},
	{Name: "query.rows_in_per_row_out.range", Unit: "ratio", Better: "lower"},
	{Name: "query.rows_in_per_row_out.agg", Unit: "ratio", Better: "lower"},
	{Name: "query.scan_busy_us.agg", Unit: "us", Better: "lower"},
	{Name: "query.scan_busy_us.scan", Unit: "us", Better: "lower"},
	// optimizer
	{Name: "optimizer.explain_us", Unit: "us", Better: "lower"},
	// storage
	{Name: "storage.wal_fsyncs_per_delivery", Unit: "count", Better: "lower"},
	{Name: "storage.wal_commit_wait_ms_per_delivery", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_bytes_per_row", Unit: "count", Better: "lower"},
	{Name: "storage.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.checkpoints", Unit: "count", Better: "lower"},
	{Name: "storage.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.recovery_s", Unit: "s", Better: "lower"},
	{Name: "storage.insert_batch_us_per_row", Unit: "us", Better: "lower"},
	{Name: "storage.auto_indexes", Unit: "count", Better: "higher"},
	{Name: "storage.index_hits_per_read", Unit: "ratio", Better: "higher"},
	// curate
	{Name: "curate.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "curate.install_ms", Unit: "ms", Better: "lower"},
	{Name: "curate.relate_ms", Unit: "ms", Better: "lower"},
	{Name: "curate.integrate_ms", Unit: "ms", Better: "lower"},
	{Name: "curate.infer_ms", Unit: "ms", Better: "lower"},
	// er
	{Name: "er.block_ms", Unit: "ms", Better: "lower"},
	{Name: "er.score_ms", Unit: "ms", Better: "lower"},
	{Name: "er.candidates_per_row", Unit: "count", Better: "lower"},
	{Name: "er.comparisons_per_row", Unit: "count", Better: "lower"},
	{Name: "er.block_skips", Unit: "count", Better: "lower"},
	{Name: "er.merges_per_comparison", Unit: "ratio", Better: "higher"},
	{Name: "er.merges_per_planted_dup", Unit: "ratio", Better: "higher"},
	// obs
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"embedded-read", "read mix on the facade, 2 closed-loop goroutines: only query, optimizer, core and storage work, so a wire or router change must not move it"},
	{"server-read", "same mix, 2 closed-loop clients to one server: adds frame decode, admission, result encode and the socket; the scan class makes the codec most of the work"},
	{"router-read", "same mix, 2 closed-loop clients to a router over 3 shards: scatter, per-shard round trips and partial merge dominate agg, topk and scan"},
	{"server-ingest", "fixed delivery stream with planted duplicates, 1 client to one durable server: curate, er and the storage WAL do the work; reads bypass all three"},
	{"router-ingest", "the same stream through the router: adds the per-shard split, the digest exchange and the router's single ingest mutex"},
	{"server-mixed", "open loop at fixed rates: point and range reads beside small fsync-heavy deliveries, so a read gain bought with ingest cost shows in one run"},
}
