package main

// counters is one reading of the counters the layers already keep. Ratios in
// the per-layer table are differences of two readings taken around the
// measured phase of an ordinary two-client round.
type counters struct {
	reads, writes, begins, commits, rollbacks int64
	backendsDisabled                          int64

	planHits, planMisses, planDeferred int64

	cacheHits, cacheMisses, cacheInvalidations, cacheEvictions int64

	backendOps, backendFailures int64
	engineReads                 [nBackends]int64
	engineAborts                int64
}

func readCounters(cl *cluster) counters {
	var c counters
	s := cl.vdb.StatsSnapshot()
	c.reads, c.writes, c.begins, c.commits, c.rollbacks = s.Reads, s.Writes, s.Begins, s.Commits, s.Rollbacks
	c.backendsDisabled = s.BackendsDisabled
	if pc := cl.vdb.PlanCache(); pc != nil {
		ps := pc.StatsSnapshot()
		c.planHits, c.planMisses, c.planDeferred = ps.Hits, ps.Misses, ps.Deferred
	}
	if rc := cl.vdb.Cache(); rc != nil {
		cs := rc.StatsSnapshot()
		c.cacheHits, c.cacheMisses, c.cacheInvalidations, c.cacheEvictions = cs.Hits, cs.Misses, cs.Invalidations, cs.Evictions
	}
	for _, b := range cl.vdb.Backends() {
		c.backendOps += b.Ops()
		c.backendFailures += b.Failures()
	}
	for i, e := range cl.engines {
		es := e.StatsSnapshot()
		c.engineReads[i] = es.Reads
		c.engineAborts += es.Aborts
	}
	return c
}
