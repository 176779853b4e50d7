package controller

import (
	"fmt"
	"math"
	"sync"
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
// costs what routing it and running it on one engine cost (27 objects
// while every request cloned, bound and rendered), a result-cache hit
// costs nothing, and a point write on two replicas keeps only the text its
// log entry needs.
func TestParamAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cache  bool
		sql    string
		params []sqlval.Value
		budget float64
	}{
		{"point read", false, "SELECT id, v, pad FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(2)}, 12},
		{"cache hit", true, "SELECT id, v, pad FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(2)}, 0},
		{"point write", false, "UPDATE kv SET v = v + ? WHERE id = ?", []sqlval.Value{sqlval.Int(1), sqlval.Int(3)}, 56},
	} {
		cfg := VDBConfig{ParallelTx: true, RecoveryLog: recovery.NewMemoryLog()}
		if tc.cache {
			cfg.Cache = cache.New(cache.Config{Granularity: cache.GranTable})
		}
		v, _ := mkVDB(t, 2, cfg, kvSchema...)
		s := openSession(t, v)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.Exec(tc.sql, tc.params); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocations", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.1f allocations, budget %.0f", tc.name, allocs, tc.budget)
		}
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
	for i, scale := range []time.Duration{0, 20 * time.Millisecond} {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		s := e.NewSession()
		for _, q := range kvSchema {
			if _, err := s.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		engines = append(engines, e)
		var cm *backend.CostModel
		if scale > 0 {
			cm = &backend.CostModel{TimeScale: scale, Write: 1}
		}
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}, Cost: cm})
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
