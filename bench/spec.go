package main

// The metric names here, and the workload names in round.go, are the ones
// BENCHMARK.json declares; suite_test.go holds the lists equal. The order is
// the print order.

type metricDef struct {
	name, unit string
}

// endToEnd is what a client of the cluster sees, measured with tracing off.
// Every workload reports every one of them (the builder's contract); README.md
// says what each means on the workloads where the issue's table left a blank.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"txn_p50_us", "us"},
	{"allocs_per_req", "count"},
	{"heap_end_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer comes from the counters of one ordinary round, a traced
// single-client run and the probes; a metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{"error_share", "ratio"},
	{"reintegrate_s", "s"},
	{"latency_p99_us", "us"},
	{"latency_p99_samples_beyond", "count"},
	{"driver.request_us", "us"},
	{"netproto.self_us", "us"},
	{"netproto.ping_us", "us"},
	{"netproto.exec_1row_us", "us"},
	{"netproto.exec_50row_us", "us"},
	{"controller.self_us", "us"},
	{"controller.share", "ratio"},
	{"controller.lockclass_ns", "ns"},
	{"controller.backends_disabled", "count"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.get_ns", "ns"},
	{"plancache.deferred_per_kreq", "count"},
	{"sqlparser.parse_us", "us"},
	{"sqlparser.bind_render_ns", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_kreq", "count"},
	{"cache.invalidations_per_write", "count"},
	{"cache.get_hit_ns", "ns"},
	{"cache.get_miss_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.invalidate_ns", "ns"},
	{"balancer.choose_ns", "ns"},
	{"balancer.read_skew", "ratio"},
	{"recovery.append_us", "us"},
	{"recovery.appends_per_req", "count"},
	{"recovery.append_ns", "ns"},
	{"recovery.dump_s", "s"},
	{"recovery.restore_s", "s"},
	{"recovery.since_ms", "ms"},
	{"recovery.replay_entries_per_s", "1/s"},
	{"backend.queue_us", "us"},
	{"backend.read_overhead_ns", "ns"},
	{"backend.write_overhead_us", "us"},
	{"backend.ops_per_req", "count"},
	{"backend.failures", "count"},
	{"sqlengine.exec_us", "us"},
	{"sqlengine.begin_us", "us"},
	{"sqlengine.commit_us", "us"},
	{"sqlengine.close_us", "us"},
	{"sqlengine.busy_share", "ratio"},
	{"sqlengine.point_read_ns", "ns"},
	{"sqlengine.update_ns", "ns"},
	{"sqlengine.aborts", "count"},
	{"process.cpu_us_per_req", "us"},
	{"process.alloc_bytes_per_req", "B"},
	{"process.gc_pause_ms", "ms"},
	{"process.goroutines_end", "count"},
	{"loadgen.self_ns_per_req", "ns"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}
