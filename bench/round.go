package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"cjdbc"
	"cjdbc/bench/hist"
	"cjdbc/bench/tpcw"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// nClients is the load model's fixed client count: closed loop, zero think
// time, one connection each. The traced run uses one.
const nClients = 2

// workload describes one of the seven. ops is the fixed number of requests
// (interactions for tpcw_shopping) each client sends in one full-size round;
// rounds are a fixed amount of work, not a fixed time, so data growth and
// allocation counts are the same on every commit.
type workload struct {
	name   string
	cache  bool
	wire   bool
	ops    int
	gen    func(rng *rand.Rand, client, n int) []op // nil: tpcw_shopping drives its own client
	exactV bool                                     // reads must see the loaded v
	// recovery: the stream is applied by one client while db1 is out, and the
	// round ends with the timed RestoreBackend.
	recovery bool
}

// Op counts put the measured part of a full round between one and three
// seconds on the two-core calibration box (README.md has the table). They were
// cut from the issue's where the builder's time cap required: point_txn and
// recovery_reintegrate pay a session close per transaction or replayed entry
// that sweeps every table, about a millisecond at this data size.
var workloads = []*workload{
	{name: "point_read", ops: 120000, gen: genPointRead, exactV: true},
	{name: "point_write", ops: 38000, gen: genPointWrite},
	{name: "point_txn", ops: 1200, gen: genPointTxn},
	{name: "cached_read", cache: true, ops: 150000, gen: genCachedRead},
	{name: "wire_read", wire: true, ops: 18000, gen: genWireRead, exactV: true},
	{name: "tpcw_shopping", ops: 2000},
	{name: "recovery_reintegrate", ops: 20000, gen: genDegraded, recovery: true},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// roundParams selects one round of a workload.
type roundParams struct {
	seed    int64
	scale   float64 // multiplies the op count; 1 is a full round
	clients int
	tracer  *tracer // non-nil: build the traced cluster and record spans
	// probe, when set, runs after the oracles with the cluster still open.
	probe func(cl *cluster, streams [][]op, dump *recovery.Dump) error
}

// roundResult is everything one round measured.
type roundResult struct {
	requests   int64 // attempted requests in the measured phase
	failed     int64 // failed requests plus failed correctness checks
	problems   []string
	elapsed    time.Duration // measured phase, wall
	lat, txn   hist.H
	busyNs     int64 // sum of request latencies over all clients
	setupS     float64
	reintS     float64
	heapEndMB  float64
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	cpuNs      int64
	goroutines int
	before     counters
	after      counters
}

func (r *roundResult) problem(format string, a ...any) {
	r.failed++
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

func (w *workload) opsFor(scale float64) int {
	n := int(float64(w.ops) * scale)
	if n < 8 {
		n = 8
	}
	return n
}

// clientsOf is how many of the run's clients the workload uses: the recovery
// scenario's stream comes from one.
func (w *workload) clientsOf(clients int) int {
	if w.recovery {
		return 1
	}
	return clients
}

// streams generates every client's requests from the seed alone.
func (w *workload) streams(seed int64, clients, n int) [][]op {
	if w.gen == nil {
		return nil
	}
	out := make([][]op, w.clientsOf(clients))
	for c := range out {
		out[c] = w.gen(clientRNG(seed, c), c, n)
	}
	return out
}

func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runRound builds a fresh cluster, loads it, runs the workload's fixed work
// once and checks the outcome. An error means the round could not run at all;
// wrong results are counted in res.failed.
func (w *workload) runRound(p roundParams) (*roundResult, error) {
	res := &roundResult{}
	err := w.round(p, res)
	// Counted after the cluster is closed: anything above the runtime's own
	// few is a goroutine the program leaked.
	res.goroutines = runtime.NumGoroutine()
	return res, err
}

func (w *workload) round(p roundParams, res *roundResult) error {
	n := w.opsFor(p.scale)
	streams := w.streams(p.seed, p.clients, n)
	heap0 := liveHeap()

	// Set-up: cluster, data, client sessions (and the checkpoint backup the
	// recovery scenario starts from).
	t0 := time.Now()
	cl, err := newCluster(clusterOpts{cache: w.cache, wire: w.wire, tracer: p.tracer})
	if err != nil {
		return err
	}
	defer cl.close()
	loader, err := cl.vdbSession()
	if err != nil {
		return err
	}
	if w.gen == nil {
		err = tpcw.Load(loader, tpcwScale, p.seed)
	} else {
		err = loadPoint(loader)
	}
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	var dump *recovery.Dump
	if w.recovery {
		if dump, err = cl.vdb.BackupBackend(backendName(1), "bench-cp"); err != nil {
			return fmt.Errorf("backup: %w", err)
		}
		cl.vdb.DisableBackend(backendName(1))
	}
	clients := w.clientsOf(p.clients)
	sessions := make([]*timedSession, clients)
	for i := range sessions {
		s, err := cl.open()
		if err != nil {
			return err
		}
		defer s.Close()
		sessions[i] = newTimedSession(s, p.tracer)
	}
	runners := make([]func(), clients)
	var opClients []*opClient
	if w.gen == nil {
		alloc := tpcw.NewIDAllocator(1 << 20)
		for i, s := range sessions {
			c := tpcw.NewClient(i, s, tpcwScale, clientRNG(p.seed, i), alloc)
			runners[i] = func() {
				for k := 0; k < n; k++ {
					// A failed interaction is counted request by request
					// in the timed session.
					_, _ = c.Interaction()
				}
			}
		}
	} else {
		for i, s := range sessions {
			c := newOpClient(s, streams[i], w.exactV)
			opClients = append(opClients, c)
			runners[i] = c.run
		}
	}
	res.setupS = time.Since(t0).Seconds()

	// Measured phase.
	if p.tracer != nil {
		p.tracer.start()
	}
	res.before = readCounters(cl)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTimeNs()
	start := time.Now()
	var wg sync.WaitGroup
	for _, run := range runners {
		wg.Add(1)
		go func(run func()) {
			defer wg.Done()
			run()
		}(run)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpuNs = cpuTimeNs() - cpu0
	runtime.ReadMemStats(&m1)
	res.after = readCounters(cl)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	for _, s := range sessions {
		res.requests += s.attempted
		res.failed += s.failed
		res.busyNs += s.busyNs
		res.lat.Merge(&s.lat)
		res.txn.Merge(&s.txn)
		if s.firstErr != nil {
			res.problem("request failed: %v", s.firstErr)
			res.failed-- // already counted as a failed request
		}
	}
	for _, c := range opClients {
		if c.checkFailed > 0 {
			res.failed += c.checkFailed - 1
			res.problem("read check: %s", c.firstBad)
		}
	}

	if w.recovery {
		if p.tracer != nil {
			p.tracer.req.Store(reintegrateReq)
		}
		t := time.Now()
		err := cl.vdb.RestoreBackend(backendName(1), dump)
		res.reintS = time.Since(t).Seconds()
		if p.tracer != nil {
			p.tracer.addSpan(span{kind: spanRequest, backend: noBackend, req: reintegrateReq,
				start: int64(t.Sub(p.tracer.base)), end: p.tracer.now()})
		}
		if err != nil {
			res.problem("RestoreBackend: %v", err)
		}
	}
	if p.tracer != nil {
		p.tracer.stop()
	}
	if h := liveHeap(); h > heap0 {
		res.heapEndMB = float64(h-heap0) / (1 << 20)
	}

	w.checkOutcome(cl, loader, streams, res)
	if p.probe != nil {
		if err := p.probe(cl, streams, dump); err != nil {
			res.problem("probe: %v", err)
		}
	}
	return loader.Close()
}

// reintegrateReq tags the spans of the timed RestoreBackend; client requests
// count up from 1 and never reach it.
const reintegrateReq = 1<<32 - 1

// vdbSession opens an in-process session for loading and checking, whatever
// transport the workload's clients use.
func (c *cluster) vdbSession() (cjdbc.Session, error) {
	s, err := c.vdb.NewSession(benchUser, "")
	if err != nil {
		return nil, err
	}
	return &innerSession{s: s}, nil
}

// checkOutcome runs the correctness oracles; each violated one counts as a
// failure.
func (w *workload) checkOutcome(cl *cluster, sess cjdbc.Session, streams [][]op, res *roundResult) {
	// Both replicas enabled, and nothing was disabled that the scenario did
	// not disable itself.
	wantDisabled := int64(0)
	if w.recovery {
		wantDisabled = 1
	}
	if got := cl.vdb.StatsSnapshot().BackendsDisabled; got != wantDisabled {
		res.problem("BackendsDisabled = %d, want %d", got, wantDisabled)
	}
	for _, b := range cl.vdb.Backends() {
		if !b.Enabled() {
			res.problem("backend %s is %s at the end of the round", b.Name(), b.State())
		}
	}

	// Replicas identical, table by table. On recovery_reintegrate this is
	// "the restored db1 equals the donor".
	names := cl.engines[0].TableNames()
	if got := cl.engines[1].TableNames(); fmt.Sprint(got) != fmt.Sprint(names) {
		res.problem("replicas hold different tables: %v vs %v", names, got)
	}
	for _, t := range names {
		r0, d0, err0 := tableDigest(cl.engines[0], t)
		r1, d1, err1 := tableDigest(cl.engines[1], t)
		if err0 != nil || err1 != nil || r0 != r1 || d0 != d1 {
			res.problem("table %s differs between replicas: %d rows %x (%v) vs %d rows %x (%v)", t, r0, d0, err0, r1, d1, err1)
		}
	}

	// The point tables hold what the acknowledged writes imply: row counts,
	// and SUM(v) = loaded sum + increments (+ inserted values); transfers
	// conserve it.
	if w.gen == nil {
		return
	}
	want := loadedExpectation()
	want.apply(streams)
	for t := 0; t < nTables; t++ {
		rows, err := sess.Query(fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM kv%d", t))
		var count, sum int64
		if err == nil && rows.Next() {
			err = rows.Scan(&count, &sum)
		}
		if err != nil || count != want.rows[t] || sum != want.sum[t] {
			res.problem("kv%d holds %d rows summing to %d, want %d and %d (%v)", t, count, sum, want.rows[t], want.sum[t], err)
		}
	}
}

// tableDigest hashes a table's rows into an order-independent digest.
func tableDigest(e *sqlengine.Engine, table string) (rows int, digest uint64, err error) {
	_, rs, err := e.SnapshotTable(table)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range rs {
		h := fnv.New64a()
		for _, v := range r {
			h.Write([]byte(v.Key()))
			h.Write([]byte{0})
		}
		digest += h.Sum64()
	}
	return len(rs), digest, nil
}
