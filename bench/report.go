package main

import (
	"fmt"
	"io"
	"math"
)

// values maps a metric name to its value.
type values map[string]float64

// stat is a metric over the rounds of one run.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

// roundEndToEnd derives the end-to-end metrics of one round.
func roundEndToEnd(w *workload, r *roundResult) values {
	reqs := float64(r.requests)
	v := values{
		"throughput_rps": reqs / r.elapsed.Seconds(),
		"latency_p50_us": r.lat.Quantile(0.5) / 1e3,
		"latency_p95_us": r.lat.Quantile(0.95) / 1e3,
		"txn_p50_us":     r.lat.Quantile(0.5) / 1e3,
		"allocs_per_req": float64(r.mallocs) / reqs,
		"heap_end_mb":    r.heapEndMB,
		"setup_s":        r.setupS,
	}
	if r.txn.Count() > 0 {
		// Explicit transactions: BEGIN sent to COMMIT acknowledged. Elsewhere
		// every request is its own auto-commit transaction.
		v["txn_p50_us"] = r.txn.Quantile(0.5) / 1e3
	}
	if w.recovery {
		// The scenario's work is bringing db1 back: writes missed by db1 and
		// replayed onto it, per second of RestoreBackend. The latencies are
		// those of the traffic served while db1 was out.
		v["throughput_rps"] = float64(r.after.writes-r.before.writes) / r.reintS
	}
	return v
}

// endToEndOf reduces a run's rounds to median, minimum and maximum.
func endToEndOf(w *workload, rounds []*roundResult) map[string]stat {
	per := make([]values, len(rounds))
	for i, r := range rounds {
		per[i] = roundEndToEnd(w, r)
	}
	out := make(map[string]stat, len(endToEnd))
	for _, d := range endToEnd {
		xs := make([]float64, len(per))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range per {
			xs[i] = v[d.name]
			lo, hi = math.Min(lo, xs[i]), math.Max(hi, xs[i])
		}
		out[d.name] = stat{Median: median(xs), Min: lo, Max: hi, Unit: d.unit}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun is what the per-layer table is computed from.
type tracedRun struct {
	ordinary *roundResult // two clients, full size: counters and totals
	plain    *roundResult // one client, a quarter of the requests, no tracing
	traced   *roundResult // the same with the cluster built from the wrappers
	layers   layerTimes   // analysis of the traced spans
	inproc   *layerTimes  // wire_read only: the same stream traced in process
	probes   values
}

// perLayerOf assembles the per-layer table. Names absent from the result read 0.
func perLayerOf(t *tracedRun) values {
	o, lt := t.ordinary, t.layers
	reqs := float64(o.requests)
	d := func(after, before int64) float64 { return float64(after - before) }
	a, b := o.after, o.before
	kind := func(k uint8) float64 { return ratio(float64(lt.sum[k]), float64(lt.count[k])) }

	v := values{}
	for k, x := range t.probes {
		v[k] = x
	}
	v["reintegrate_s"] = o.reintS
	v["latency_p99_us"] = o.lat.Quantile(0.99) / 1e3
	v["latency_p99_samples_beyond"] = float64(o.lat.Beyond(0.99))

	request := ratio(float64(lt.requestNs), float64(lt.requests))
	self := ratio(float64(lt.selfNs), float64(lt.requests))
	v["driver.request_us"] = request / 1e3
	if t.inproc != nil {
		// Over the wire the remainder holds netproto and the controller; the
		// controller's part is what the same stream leaves in process.
		ctrl := ratio(float64(t.inproc.selfNs), float64(t.inproc.requests))
		v["netproto.self_us"] = (self - ctrl) / 1e3
		self = ctrl
	}
	v["controller.self_us"] = self / 1e3
	v["controller.share"] = ratio(self, request)
	v["controller.backends_disabled"] = float64(a.backendsDisabled)

	v["plancache.hit_ratio"] = ratio(d(a.planHits, b.planHits), d(a.planHits, b.planHits)+d(a.planMisses, b.planMisses))
	v["plancache.deferred_per_kreq"] = 1000 * ratio(d(a.planDeferred, b.planDeferred), reqs)
	v["cache.hit_ratio"] = ratio(d(a.cacheHits, b.cacheHits), d(a.cacheHits, b.cacheHits)+d(a.cacheMisses, b.cacheMisses))
	v["cache.evictions_per_kreq"] = 1000 * ratio(d(a.cacheEvictions, b.cacheEvictions), reqs)
	v["cache.invalidations_per_write"] = ratio(d(a.cacheInvalidations, b.cacheInvalidations), d(a.writes, b.writes))

	lo, hi := math.Inf(1), 0.0
	for i := range a.engineReads {
		r := d(a.engineReads[i], b.engineReads[i])
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	v["balancer.read_skew"] = ratio(hi, lo)

	v["recovery.append_us"] = kind(spanAppend) / 1e3
	v["recovery.appends_per_req"] = ratio(float64(lt.count[spanAppend]), float64(lt.requests))
	v["backend.queue_us"] = ratio(float64(lt.queueSum), float64(lt.queueCount)) / 1e3
	v["backend.ops_per_req"] = ratio(d(a.backendOps, b.backendOps), reqs)
	v["backend.failures"] = d(a.backendFailures, b.backendFailures)
	v["sqlengine.exec_us"] = kind(spanExec) / 1e3
	v["sqlengine.begin_us"] = kind(spanBegin) / 1e3
	v["sqlengine.commit_us"] = kind(spanCommit) / 1e3
	v["sqlengine.close_us"] = kind(spanClose) / 1e3
	v["sqlengine.busy_share"] = ratio(float64(lt.engineNs), float64(lt.requestNs))
	v["sqlengine.aborts"] = d(a.engineAborts, b.engineAborts)

	v["process.cpu_us_per_req"] = ratio(float64(o.cpuNs), reqs) / 1e3
	v["process.alloc_bytes_per_req"] = ratio(float64(o.allocBytes), reqs)
	v["process.gc_pause_ms"] = float64(o.gcPauseNs) / 1e6
	v["process.goroutines_end"] = float64(o.goroutines)

	// Medians, not means: the two runs are short and a single collection
	// pause in one of them would swamp the wrappers' cost.
	plainReq, tracedReq := t.plain.lat.Quantile(0.5), t.traced.lat.Quantile(0.5)
	v["loadgen.self_ns_per_req"] = ratio(float64(t.plain.elapsed.Nanoseconds()-t.plain.busyNs), float64(t.plain.requests))
	v["trace.overhead_share"] = ratio(tracedReq-plainReq, plainReq)
	v["trace.unattributed_share"] = ratio(float64(lt.outsideNs), float64(lt.requestNs))
	return v
}

// printLines prints one "<workload> <metric> <value> <unit>" line per metric.
func printLines(w io.Writer, workload string, defs []metricDef, get func(name string) float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %v %s\n", workload, d.name, get(d.name), d.unit)
	}
}
