package main

import (
	"fmt"
	"sort"
	"time"

	"cjdbc"
	"cjdbc/bench/tpcw"
	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/cache"
	"cjdbc/internal/controller"
	"cjdbc/internal/netproto"
	"cjdbc/internal/plancache"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Probes price the layers whose cost cannot be seen from outside a running
// request (plan cache, parser, result cache, class lock) and the ones the
// in-situ spans need a bare baseline for (backend against engine, netproto
// against nothing). Each replays the workload's own statements
// single-threaded through one public function of one layer, in batches of
// probeBatch calls, and reports the median batch.
const (
	probeBatch   = 1000
	probeBatches = 5
)

// perCall times f over probeBatches batches of probeBatch calls and returns
// the median batch's nanoseconds per call.
func perCall(f func(i int)) float64 {
	ns, _ := perCallPair(f, nil)
	return ns
}

// perCallPair times two functions over the same call indices in alternating
// batches, so that a difference between them is not the machine's drift or
// the second one running on warmer caches.
func perCallPair(f, g func(i int)) (fNs, gNs float64) {
	batch := func(h func(i int), b int) float64 {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			h(b*probeBatch + i)
		}
		return float64(time.Since(t0)) / probeBatch
	}
	ft, gt := make([]float64, probeBatches), make([]float64, probeBatches)
	for b := range ft {
		ft[b] = batch(f, b)
		if g != nil {
			gt[b] = batch(g, b)
		}
	}
	return median(ft), median(gt)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// stmt is one statement of the workload's stream as the probes see it.
type stmt struct {
	sql    string
	params []sqlval.Value
	plan   *plancache.Plan
	bound  sqlparser.Statement // plan.Stmt cloned and bound, what the backend receives
	text   string              // bound rendered, the result-cache key and log text
}

// recorder captures the statements a tpcw client sends, so the probes can
// replay tpcw_shopping's stream like a generated one.
type recorder struct {
	cjdbc.Session
	out *[]stmt
}

func (r recorder) Exec(sql string, args ...any) (*cjdbc.Rows, error) {
	if params, err := toValues(args); err == nil {
		*r.out = append(*r.out, stmt{sql: sql, params: params})
	}
	return r.Session.Exec(sql, args...)
}

func (r recorder) Query(sql string, args ...any) (*cjdbc.Rows, error) { return r.Exec(sql, args...) }

// probeStream returns up to max statements of the workload's stream, parsed
// and bound. Demarcations are left out: no probed layer prices them.
func probeStream(w *workload, cl *cluster, streams [][]op, seed int64, max int) ([]stmt, error) {
	var raw []stmt
	if w.gen == nil {
		sess, err := cl.vdbSession()
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		c := tpcw.NewClient(9, recorder{Session: sess, out: &raw}, tpcwScale, clientRNG(seed, 9), tpcw.NewIDAllocator(1<<30))
		for len(raw) < max {
			if _, err := c.Interaction(); err != nil {
				return nil, fmt.Errorf("probe stream: %w", err)
			}
		}
	} else {
		for _, o := range streams[0] {
			if o.sql == "" {
				continue
			}
			params, err := toValues(o.args)
			if err != nil {
				return nil, err
			}
			raw = append(raw, stmt{sql: o.sql, params: params})
			if len(raw) == max {
				break
			}
		}
	}
	out := raw[:0]
	for _, s := range raw {
		key := plancache.Normalize(s.sql)
		st, err := sqlparser.Parse(key)
		if err != nil {
			return nil, fmt.Errorf("probe stream: %w", err)
		}
		s.plan = plancache.Build(key, st)
		if s.plan.Class != sqlparser.ClassRead && s.plan.Class != sqlparser.ClassWrite {
			continue
		}
		s.bound = s.plan.Stmt.Clone()
		if err := sqlparser.BindParams(s.bound, s.params); err != nil {
			return nil, fmt.Errorf("probe stream: %w", err)
		}
		s.text = sqlparser.Render(s.bound)
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("probe stream of %s is empty", w.name)
	}
	return out, nil
}

// at cycles through s, so a probe can make more calls than the stream has
// statements.
func at(s []stmt, i int) *stmt { return &s[i%len(s)] }

// pick returns the statements f accepts.
func pick(all []stmt, f func(*stmt) bool) []stmt {
	var out []stmt
	for i := range all {
		if f(&all[i]) {
			out = append(out, all[i])
		}
	}
	return out
}

// runProbes fills m with the probe metrics of one workload. The cluster is
// the one the round just ran on, checked and idle; the write probes change
// db0 alone, which no longer matters.
func runProbes(w *workload, cl *cluster, streams [][]op, seed int64, dump *recovery.Dump, m map[string]float64) error {
	all, err := probeStream(w, cl, streams, seed, 4*probeBatch)
	if err != nil {
		return err
	}

	// Parsing cache and parser.
	pc := plancache.New(0)
	for i := range all {
		pc.Put(all[i].plan)
	}
	m["plancache.get_ns"] = perCall(func(i int) { _ = pc.Get(plancache.Normalize(at(all, i).sql)) })
	m["sqlparser.parse_us"] = perCall(func(i int) { _, _ = sqlparser.Parse(at(all, i).sql) }) / 1e3
	if bindable := pick(all, func(s *stmt) bool { return len(s.params) > 0 }); len(bindable) > 0 {
		m["sqlparser.bind_render_ns"] = perCall(func(i int) {
			s := at(bindable, i)
			st := s.plan.Stmt.Clone()
			_ = sqlparser.BindParams(st, s.params)
			_ = sqlparser.Render(st)
		})
	}

	reads := pick(all, func(s *stmt) bool { return s.plan.Class == sqlparser.ClassRead })
	writes := pick(all, func(s *stmt) bool { return s.plan.Class == sqlparser.ClassWrite })

	// Scheduler class lock and recovery log append, as the write path takes
	// them: uncontended.
	if len(writes) > 0 {
		sched := controller.NewScheduler(1, controller.ResponseAll, true)
		m["controller.lockclass_ns"] = perCall(func(i int) {
			p := at(writes, i).plan
			sched.LockClass(p.ConflictTables, p.ConflictGlobal).Unlock()
		})
		log := recovery.NewMemoryLog()
		m["recovery.append_ns"] = perCall(func(i int) {
			s := at(writes, i)
			_, _ = log.Append(recovery.Entry{User: benchUser, Class: recovery.ClassWrite, SQL: s.text,
				Tables: s.plan.ConflictTables, Global: s.plan.ConflictGlobal, V: recovery.FootprintVersion})
		})
	}

	if w.cache && len(reads) > 0 {
		probeCache(reads, writes, m)
	}

	bal := &balancer.LeastPending{}
	cands := cl.vdb.Backends()
	m["balancer.choose_ns"] = perCall(func(int) { _, _ = bal.Choose(cands) })

	probeBackend(cl, reads, writes, m)

	if w.wire {
		if err := probeWire(cl, m); err != nil {
			return err
		}
	}
	if w.recovery {
		if err := probeRecovery(cl, dump, m); err != nil {
			return err
		}
	}
	return nil
}

// probeCache prices the result cache's four operations on a cache configured
// like the workload's.
func probeCache(reads, writes []stmt, m map[string]float64) {
	res := &backend.Result{Columns: []string{"id", "v", "pad"},
		Rows: [][]sqlval.Value{{sqlval.Int(1), sqlval.Int(2), sqlval.String_(loadedPad[0][1])}}}
	rc := cache.New(cache.Config{Granularity: cache.GranTable, MaxEntries: cacheSlots})
	put := func(i int) {
		s := at(reads, i)
		rc.PutFootprint(s.text, s.plan.Tables, s.plan.ReadCols, s.plan.ReadColsOK, res)
	}
	m["cache.put_ns"] = perCall(put)
	// The last batch put is resident (a batch is smaller than the cache).
	resident := (probeBatches - 1) * probeBatch
	m["cache.get_hit_ns"] = perCall(func(i int) { _ = rc.Get(at(reads, resident+i%probeBatch).text) })
	rc.Flush()
	m["cache.get_miss_ns"] = perCall(func(i int) { _ = rc.Get(at(reads, i).text) })

	// One write drops every cached row of its table, so the cost of an
	// invalidation is the cost of a full table's entries: refill, then time
	// one invalidation per table.
	if len(writes) == 0 {
		return
	}
	perTable := make(map[string]sqlparser.Statement)
	for i := range writes {
		if t, ok := sqlparser.WriteTarget(writes[i].bound); ok {
			perTable[t] = writes[i].bound
		}
	}
	var total time.Duration
	calls := 0
	for cycle := 0; cycle < 25; cycle++ {
		for i := 0; i < cacheSlots && i < len(reads); i++ {
			put(i)
		}
		for _, st := range perTable {
			t0 := time.Now()
			rc.InvalidateWrite(st)
			total += time.Since(t0)
			calls++
		}
	}
	m["cache.invalidate_ns"] = float64(total) / float64(calls)
}

// probeBackend prices Backend.Read and EnqueueWrite against the same bound
// statements on a bare engine session: the difference is the backend layer
// (pool checkout, lanes, ticket, worker hand-off, outcome channel). Only
// UPDATEs are replayed as writes; a repeated INSERT would fail.
func probeBackend(cl *cluster, reads, writes []stmt, m map[string]float64) {
	b := cl.vdb.Backends()[0]
	sess := cl.engines[0].NewSession()
	defer sess.Close()
	// Statements the bare session cannot run (tpcw's reads of a transaction's
	// temporary table) are left out.
	runs := func(s *stmt) bool { _, err := sess.Exec(s.bound); return err == nil }
	if reads = pick(reads, runs); len(reads) > 0 {
		engine, whole := perCallPair(
			func(i int) { _, _ = sess.Exec(at(reads, i).bound) },
			func(i int) { s := at(reads, i); _, _ = b.Read(0, s.bound, s.text) })
		m["sqlengine.point_read_ns"] = engine
		m["backend.read_overhead_ns"] = whole - engine
	}
	updates := pick(writes, func(s *stmt) bool { _, ok := s.bound.(*sqlparser.Update); return ok && runs(s) })
	if len(updates) > 0 {
		engine, whole := perCallPair(
			func(i int) { _, _ = sess.Exec(at(updates, i).bound) },
			func(i int) {
				s := at(updates, i)
				<-b.EnqueueWrite(0, sqlparser.ClassWrite, s.bound, s.text)
			})
		m["sqlengine.update_ns"] = engine
		m["backend.write_overhead_us"] = (whole - engine) / 1e3
	}
}

// probeWire prices the wire protocol at its three message sizes.
func probeWire(cl *cluster, m map[string]float64) error {
	c, err := netproto.Dial(cl.addr, vdbName, benchUser, "")
	if err != nil {
		return err
	}
	defer c.Close()
	m["netproto.ping_us"] = perCall(func(int) { _ = c.Ping() }) / 1e3
	one := []sqlval.Value{sqlval.Int(0)}
	m["netproto.exec_1row_us"] = perCall(func(i int) {
		one[0].I = int64(i % rowsPerTable)
		_, _ = c.Exec(readSQL[i%nTables], one)
	}) / 1e3
	two := []sqlval.Value{sqlval.Int(0), sqlval.Int(0)}
	m["netproto.exec_50row_us"] = perCall(func(i int) {
		two[0].I = int64(i % (rowsPerTable - rangeRows))
		two[1].I = two[0].I + rangeRows
		_, _ = c.Exec(rangeSQL[i%nTables], two)
	}) / 1e3
	return nil
}

// probeRecovery prices the four steps of a re-integration one by one, on a
// spare backend outside the cluster: dump the donor, restore the round's
// checkpoint dump, read the log since the checkpoint, replay it.
func probeRecovery(cl *cluster, dump *recovery.Dump, m map[string]float64) error {
	t0 := time.Now()
	donor := cl.engines[1] // the write probes have changed db0 by now
	if _, err := recovery.TakeDump("probe", &backend.EngineDriver{Engine: donor}); err != nil {
		return err
	}
	m["recovery.dump_s"] = time.Since(t0).Seconds()

	eng := sqlengine.New("spare")
	defer eng.Close()
	spare := backend.New(backend.Config{Name: "spare", Driver: &backend.EngineDriver{Engine: eng}})
	defer spare.Close()
	t0 = time.Now()
	if err := recovery.Restore(dump, spare); err != nil {
		return err
	}
	m["recovery.restore_s"] = time.Since(t0).Seconds()

	log := cl.vdb.RecoveryLog()
	seq, ok, err := log.CheckpointSeq(dump.Name)
	if err != nil || !ok {
		return fmt.Errorf("checkpoint %q: found %v, %v", dump.Name, ok, err)
	}
	t0 = time.Now()
	if _, err := log.Since(seq); err != nil {
		return err
	}
	m["recovery.since_ms"] = float64(time.Since(t0)) / 1e6

	t0 = time.Now()
	applied, err := recovery.ReplayParallel(log, seq, spare, 0)
	if err != nil {
		return err
	}
	m["recovery.replay_entries_per_s"] = float64(applied) / time.Since(t0).Seconds()
	for _, t := range donor.TableNames() {
		r0, d0, err0 := tableDigest(donor, t)
		r1, d1, err1 := tableDigest(eng, t)
		if err0 != nil || err1 != nil || r0 != r1 || d0 != d1 {
			return fmt.Errorf("probe replay of %s differs from the donor: %d rows %x (%v) vs %d rows %x (%v)", t, r1, d1, err1, r0, d0, err0)
		}
	}
	return nil
}
