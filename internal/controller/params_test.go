package controller

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/cache"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

var kvSchema = []string{
	"CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)",
	"INSERT INTO kv (id, v, pad) VALUES (1, 1, 'p'), (2, 2, 'p'), (3, 3, 'p')",
}

// TestParamAllocationBudget: a parameterised statement without macros
// reaches the engines as the cached plan plus its vector — no copy of the
// tree, no binding walk, and, for a read, no rendered text. A point read
// allocates only the result it returns: the Result, its row list and its
// value slab (27 objects while every request cloned, bound and rendered; 12
// while it copied the backend list twice; 10 while the engine rebuilt the
// result header and resolved names per execution; 8 while the balancer
// listed its ties, the backend re-wrapped the engine's result and the
// engine's working lists lived on the heap). A result-cache hit costs
// nothing, and a write on two replicas allocates only what outlives the
// call: the owned vector, its log text, the Bound and the outcome channel,
// and per replica the task, the lock ticket, the new row version and the
// result (54 objects while each layer rebuilt its bookkeeping per write; 72
// for an insert, 32 inside a transaction; 17, 31 and 17 while each replica's
// result was wrapped twice). An insert also builds its row and index
// entries.
func TestParamAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cache    bool
		tx       bool // run inside BEGIN … COMMIT
		freshKey bool // params[0] is a key that advances per run
		sql      string
		params   []sqlval.Value
		budget   float64
	}{
		{"point read", false, false, false, "SELECT id, v, pad FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(2)}, 3},
		{"cache hit", true, false, false, "SELECT id, v, pad FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(2)}, 0},
		{"point write", false, false, false, "UPDATE kv SET v = v + ? WHERE id = ?", []sqlval.Value{sqlval.Int(1), sqlval.Int(3)}, 15},
		{"insert", false, false, true, "INSERT INTO kv (id, v, pad) VALUES (?, ?, ?)", []sqlval.Value{sqlval.Int(1000), sqlval.Int(1), sqlval.String_("p")}, 29},
		{"write in a transaction", false, true, false, "UPDATE kv SET v = v + ? WHERE id = ?", []sqlval.Value{sqlval.Int(1), sqlval.Int(3)}, 15},
	} {
		cfg := VDBConfig{ParallelTx: true, RecoveryLog: recovery.NewMemoryLog()}
		if tc.cache {
			cfg.Cache = cache.New(cache.Config{Granularity: cache.GranTable})
		}
		v, _ := mkVDB(t, 2, cfg, kvSchema...)
		s := openSession(t, v)
		if tc.tx {
			exec(t, s, "BEGIN")
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.Exec(tc.sql, tc.params); err != nil {
				t.Fatal(err)
			}
			if tc.freshKey {
				tc.params[0].I++
			}
		})
		if tc.tx {
			exec(t, s, "COMMIT")
		}
		t.Logf("%s: %.1f allocations", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.1f allocations, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// vectorDriver wraps the engine driver and hands the parameter vector of
// every bound statement a connection executes to track.
type vectorDriver struct {
	inner backend.Driver
	track func([]sqlval.Value)
}

func (d *vectorDriver) Open() (backend.Conn, error) {
	c, err := d.inner.Open()
	if err != nil {
		return nil, err
	}
	return &vectorConn{Reserving: c.(backend.Reserving), track: d.track}, nil
}

type vectorConn struct {
	backend.Reserving
	track func([]sqlval.Value)
}

func (c *vectorConn) Exec(st sqlparser.Statement, sql string) (*backend.Result, error) {
	if b, ok := st.(*sqlparser.Bound); ok {
		c.track(b.Params)
	}
	return c.Reserving.Exec(st, sql)
}

// TestFinishedWriteKeepsNothingAlive: once every write has finished on
// every replica, no layer still references one — not the pool's key map,
// a kept lock queue, a session's reused reservation, undo or dirty list,
// nor the pooled render buffer. A session outside the cluster holds db1's
// table lock, so there two sessions' tickets queue and are granted by a
// pump, a transaction's second ticket is granted to it as the holder past
// another session's, and one transaction's ticket is abandoned by its lock
// timeout. Each write's owned vector carries a finalizer; after a
// collection every one must have run.
func TestFinishedWriteKeepsNothingAlive(t *testing.T) {
	const lockWait = time.Second
	v := NewVirtualDatabase(VDBConfig{Name: "keep", ParallelTx: true, EarlyResponse: ResponseFirst, RecoveryLog: recovery.NewMemoryLog()})
	var tracked, freed atomic.Int32
	track := func(p []sqlval.Value) {
		tracked.Add(1)
		runtime.SetFinalizer(&p[0], func(*sqlval.Value) { freed.Add(1) })
	}
	var engines []*sqlengine.Engine
	var backends []*backend.Backend
	for i := 0; i < 2; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i), sqlengine.WithLockTimeout(lockWait))
		s := e.NewSession()
		for _, q := range kvSchema {
			if _, err := s.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		engines = append(engines, e)
		var drv backend.Driver = &backend.EngineDriver{Engine: e}
		if i == 0 { // db0 runs every write once: it tracks each vector
			drv = &vectorDriver{inner: drv, track: track}
		}
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: drv})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	write := func(s *Session, d int64) error {
		_, err := s.Exec("UPDATE kv SET v = v + ? WHERE id = ?", []sqlval.Value{sqlval.Int(d), sqlval.Int(1)})
		return err
	}
	// hold takes db1's kv lock from outside the cluster; ROLLBACK releases it.
	hold := func() *sqlengine.Session {
		x := engines[1].NewSession()
		for _, q := range []string{"BEGIN", "UPDATE kv SET v = 0 WHERE id = 2"} {
			if _, err := x.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
		return x
	}
	settled := func() bool {
		for i, e := range engines {
			if backends[i].Pending() != 0 || e.PendingTickets() != 0 || e.HeldLocks() != 0 {
				return false
			}
		}
		return true
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Pump: two sessions' auto-commit tickets queue behind the holder.
	x := hold()
	a, b := openSession(t, v), openSession(t, v)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, s := range []*Session{a, b} {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := write(s, 1); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Holder re-grant: the transaction's first ticket, a's, the
	// transaction's second. a's write waits for the transaction on db0 too,
	// so it runs beside; once its ticket is queued there, the class lock has
	// placed it on db1 before the transaction's second write is sequenced.
	tx := openSession(t, v)
	exec(t, tx, "BEGIN")
	if err := write(tx, 10); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() { aDone <- write(a, 10) }()
	waitFor("a's ticket", func() bool { return engines[0].PendingTickets() == 1 })
	if err := write(tx, 10); err != nil {
		t.Fatal(err)
	}
	exec(t, tx, "COMMIT")
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if _, err := x.ExecSQL("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	waitFor("the queued writes", settled)

	// Abandoned: a transaction's ticket times out behind the holder on db1
	// (db0 applied the write, so the transaction rolls back).
	x = hold()
	exec(t, tx, "BEGIN")
	if err := write(tx, 100); err != nil {
		t.Fatal(err)
	}
	exec(t, tx, "ROLLBACK")
	waitFor("the lock timeout", func() bool { return backends[1].Pending() == 0 })
	if _, err := x.ExecSQL("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	x.Close()
	waitFor("the engines to quiesce", settled)

	for _, e := range engines {
		if got := countOn(t, e, "SELECT v FROM kv WHERE id = 1"); got != 1+20+30 {
			t.Fatalf("%s: v = %d, want 51", e.Name(), got)
		}
	}
	if n := tracked.Load(); n != 24 {
		t.Fatalf("tracked %d vectors, want 24", n)
	}
	// One collection: what survives it is referenced (a sync.Pool keeps its
	// contents through the first one), and finalizers run after it.
	runtime.GC()
	for deadline := time.Now().Add(2 * time.Second); freed.Load() < tracked.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if f := freed.Load(); f != tracked.Load() {
		t.Fatalf("%d of %d finished writes' vectors are still reachable", tracked.Load()-f, tracked.Load())
	}
}

// boundWrites are parameterised writes over kv with the values the
// renderer must spell exactly: NULL, quotes and backslashes, control bytes,
// negative and extreme integers, floats, booleans and far timestamps.
var boundWrites = []struct {
	sql    string
	params []sqlval.Value
}{
	{"INSERT INTO kv (id, v, pad) VALUES (?, ?, ?)", []sqlval.Value{sqlval.Int(10), sqlval.Null, sqlval.String_(`it's a \ "quote"`)}},
	{"INSERT INTO kv (id, v, pad) VALUES (?, ?, ?)", []sqlval.Value{sqlval.Int(11), sqlval.Int(math.MinInt64), sqlval.String_("ctl\x00\x01\n\t\x7f")}},
	{"INSERT INTO kv (id, v, pad) VALUES (?, ?, ?)", []sqlval.Value{sqlval.Int(12), sqlval.Int(math.MaxInt64), sqlval.Time(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC))}},
	{"INSERT INTO kv (id, v, pad) VALUES (?, ?, ?)", []sqlval.Value{sqlval.Int(13), sqlval.Float(-2.5e-7), sqlval.Time(time.Date(1, 1, 1, 0, 0, 0, 0, time.FixedZone("", 5*3600+1800)))}},
	{"UPDATE kv SET v = v + ?, pad = ? WHERE id = ?", []sqlval.Value{sqlval.Int(-7), sqlval.Bool(true), sqlval.Int(1)}},
	{"UPDATE kv SET pad = ? WHERE id >= ? AND id < ?", []sqlval.Value{sqlval.Float(1e300), sqlval.Int(2), sqlval.String_("3")}},
	{"DELETE FROM kv WHERE id IN (?, ?) OR pad = ?", []sqlval.Value{sqlval.Int(13), sqlval.Int(-1), sqlval.String_("''")}},
}

// TestBoundWriteLogTextIsTheBoundRendering: the recovery log records every
// parameterised write as exactly the text a clone of its plan, bound and
// rendered, would give — byte for byte, so logs, replay and dumps read the
// same as before the vector travelled unbound.
func TestBoundWriteLogTextIsTheBoundRendering(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true, RecoveryLog: log}, kvSchema...)
	s := openSession(t, v)
	for i, w := range boundWrites {
		if _, err := s.Exec(w.sql, w.params); err != nil {
			t.Fatalf("%s %v: %v", w.sql, w.params, err)
		}
		st, err := sqlparser.Parse(w.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sqlparser.BindParams(st, w.params); err != nil {
			t.Fatal(err)
		}
		want := sqlparser.Render(st)
		entries, err := log.Since(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := entries[len(entries)-1].SQL; got != want {
			t.Errorf("write %d logged as\n  %q\nwant the bound rendering\n  %q", i, got, want)
		}
	}
}

// TestEarlyResponseWriteOwnsItsVector: under early response a write returns
// before its slowest replica applies it, and the caller may reuse its
// parameter slice at once; the slow replica must still apply the values
// the write was issued with.
func TestEarlyResponseWriteOwnsItsVector(t *testing.T) {
	v := NewVirtualDatabase(VDBConfig{Name: "t", EarlyResponse: ResponseFirst, ParallelTx: true})
	var engines []*sqlengine.Engine
	for i, delay := range []time.Duration{0, 20 * time.Millisecond} {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		s := e.NewSession()
		for _, q := range kvSchema {
			if _, err := s.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		engines = append(engines, e)
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		if delay > 0 {
			b.SetFaultPlan(backend.NewFaultPlan(backend.Slow(backend.OpWrite, delay)))
		}
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	s := openSession(t, v)
	params := []sqlval.Value{sqlval.Int(40), sqlval.Int(41), sqlval.String_("issued")}
	if _, err := s.Exec("INSERT INTO kv (id, v, pad) VALUES (?, ?, ?)", params); err != nil {
		t.Fatal(err)
	}
	params[0], params[1], params[2] = sqlval.Int(50), sqlval.Int(51), sqlval.String_("reused")
	const want = "40 41 issued"
	for _, e := range engines {
		deadline := time.Now().Add(2 * time.Second)
		got := ""
		for got != want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
			es := e.NewSession()
			if res, err := es.ExecSQL("SELECT id, v, pad FROM kv WHERE id >= 40"); err == nil && len(res.Rows) == 1 {
				got = fmt.Sprintf("%d %d %s", res.Rows[0][0].I, res.Rows[0][1].I, res.Rows[0][2].S)
			}
			es.Close()
		}
		if got != want {
			t.Errorf("%s holds %s, want %s", e.Name(), got, want)
		}
	}
}

// TestSessionsShareOneParamPlan: many sessions execute the same cached
// read and write plans at once, each with its own vector; every session
// reads back exactly its own writes, and the race detector sees no write to
// the shared tree.
func TestSessionsShareOneParamPlan(t *testing.T) {
	const sessions, rounds = 8, 60
	seed := []string{"CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)"}
	for i := 0; i < sessions; i++ {
		seed = append(seed, fmt.Sprintf("INSERT INTO kv (id, v, pad) VALUES (%d, 0, 'p%d')", i, i))
	}
	v, engines := mkVDB(t, 2, VDBConfig{ParallelTx: true, RecoveryLog: recovery.NewMemoryLog(),
		Cache: cache.New(cache.Config{Granularity: cache.GranColumn})}, seed...)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		s := openSession(t, v)
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for r := int64(1); r <= rounds; r++ {
				if _, err := s.Exec("UPDATE kv SET v = ?, pad = ? WHERE id = ?", []sqlval.Value{
					sqlval.Int(r), sqlval.String_(fmt.Sprintf("s%d'r%d", id, r)), sqlval.Int(id)}); err != nil {
					errs <- err
					return
				}
				for k := 0; k < 2; k++ { // the second read is a cache hit
					res, err := s.Exec("SELECT v, pad FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(id)})
					if err != nil {
						errs <- err
						return
					}
					if got := res.Rows[0]; got[0].I != r || got[1].S != fmt.Sprintf("s%d'r%d", id, r) {
						errs <- fmt.Errorf("session %d round %d read %v", id, r, got)
						return
					}
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, e := range engines {
		if n := countOn(t, e, fmt.Sprintf("SELECT COUNT(*) FROM kv WHERE v = %d", rounds)); n != sessions {
			t.Errorf("%s: %d rows at the last round, want %d", e.Name(), n, sessions)
		}
	}
}
