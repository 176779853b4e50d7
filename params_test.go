package cjdbc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

// nestedPair starts a leaf controller with two in-memory backends serving
// cjdbc:// and a top controller whose only backend is the leaf (§4.2), and
// returns an in-process session on each plus a wire session on the leaf.
func nestedPair(t *testing.T) (top, leaf, wire Session, leafVDB *VirtualDatabase) {
	t.Helper()
	leafCtrl := NewController("leaf", 21)
	t.Cleanup(leafCtrl.Close)
	leafVDB, err := leafCtrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "leafdb"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"l0", "l1"} {
		if err := leafVDB.AddInMemoryBackend(name); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := leafCtrl.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dsn := fmt.Sprintf("cjdbc://%s/leafdb", addr)
	topCtrl := NewController("top", 22)
	t.Cleanup(topCtrl.Close)
	topVDB, err := topCtrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "topdb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := topVDB.AddClusterBackend("leaf-as-backend", dsn); err != nil {
		t.Fatal(err)
	}
	open := func(f func() (Session, error)) Session {
		s, err := f()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	top = open(func() (Session, error) { return topVDB.OpenSession("u", "") })
	leaf = open(func() (Session, error) { return leafVDB.OpenSession("u", "") })
	wire = open(func() (Session, error) { return Connect(dsn) })
	return top, leaf, wire, leafVDB
}

// TestParamCountMismatchIsRefused: a statement given more values than it
// has placeholders is refused with the same *sqlparser.BindError as one
// given fewer — in process, over the wire and through a nested controller —
// and a refused write changes nothing.
func TestParamCountMismatchIsRefused(t *testing.T) {
	top, leaf, wire, _ := nestedPair(t)
	if _, err := top.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := top.Exec("INSERT INTO kv (id, v) VALUES (?, ?)", 1, "one"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql  string
		args []any
	}{
		{"SELECT v FROM kv WHERE id = ?", []any{1, 2}},
		{"SELECT v FROM kv WHERE id = 1", []any{1}},
		{"INSERT INTO kv (id, v) VALUES (?, ?)", []any{2, "two", "extra"}},
		{"UPDATE kv SET v = ? WHERE id = ?", []any{"uno", 1, 1}},
		{"DELETE FROM kv WHERE id = ?", []any{}},
		{"BEGIN", []any{1}},
	} {
		_, want := leaf.Exec(tc.sql, tc.args...)
		var be *sqlparser.BindError
		if !errors.As(want, &be) {
			t.Fatalf("%s %v in process: %v, want a *sqlparser.BindError", tc.sql, tc.args, want)
		}
		for path, s := range map[string]Session{"wire": wire, "nested": top} {
			if _, err := s.Exec(tc.sql, tc.args...); err == nil || err.Error() != want.Error() {
				t.Errorf("%s %v over the %s path: %v, want %v", tc.sql, tc.args, path, err, want)
			}
		}
	}
	rows, err := leaf.Query("SELECT id, v FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	var id int64
	var v string
	if !rows.Next() || rows.Scan(&id, &v) != nil || id != 1 || v != "one" || rows.Next() {
		t.Fatalf("a refused write changed kv: %d rows, first (%d, %q)", rows.Len(), id, v)
	}
}

// TestNestedControllerGetsTextAndVector: a parameterised statement reaches
// a nested controller as its text with placeholders plus the vector, so a
// quoted string crosses two controller levels unrendered and intact.
func TestNestedControllerGetsTextAndVector(t *testing.T) {
	top, leaf, _, leafVDB := nestedPair(t)
	if _, err := top.Exec("CREATE TABLE names (id INTEGER PRIMARY KEY, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	const quoted = `O'Brien said "hi"; \' -- not a comment`
	const insert = "INSERT INTO names (id, name) VALUES (?, ?)"
	const read = "SELECT id FROM names WHERE name = ?"
	if _, err := top.Exec(insert, 7, quoted); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second execution passes the plan cache's doorkeeper
		rows, err := top.Query(read, quoted)
		if err != nil {
			t.Fatal(err)
		}
		var id int64
		if !rows.Next() || rows.Scan(&id) != nil || id != 7 {
			t.Fatalf("read through two levels: %d rows", rows.Len())
		}
	}
	if leafVDB.Internal().PlanCache().Get(read) == nil {
		t.Errorf("the leaf never planned %q: the top rendered the read instead of passing its vector", read)
	}
	rows, err := leaf.Query("SELECT name FROM names WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	var name string
	if !rows.Next() || rows.Scan(&name) != nil || name != quoted {
		t.Fatalf("leaf stores %q, want %q", name, quoted)
	}

	// A write that calls a macro reaches the leaf as its slotted text plus
	// the filled vector: one text for every execution, so the leaf's plan
	// cache hits after the first, one value for both leaf replicas, and
	// each value where the leaf, numbering the text's ? in order, reads it.
	if _, err := top.Exec("CREATE TABLE stamps (id INTEGER PRIMARY KEY, at TIMESTAMP, r FLOAT)"); err != nil {
		t.Fatal(err)
	}
	plans := leafVDB.Internal().PlanCache()
	before := plans.StatsSnapshot().Hits
	for id := 1; id <= 6; id++ {
		if _, err := top.Exec("INSERT INTO stamps (at, id, r) VALUES (NOW(), ?, RAND())", id); err != nil {
			t.Fatal(err)
		}
	}
	if hits := plans.StatsSnapshot().Hits - before; hits != 5 {
		t.Errorf("the leaf's plan cache hit %d times over 6 macro INSERTs, want 5", hits)
	}
	var held [2]string
	for i, name := range []string{"l0", "l1"} {
		b, err := leafVDB.Internal().Backend(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.DirectExec(nil, "SELECT id, at, r FROM stamps ORDER BY id")
		if err != nil || len(res.Rows) != 6 {
			t.Fatalf("%s: %v, %v", name, res, err)
		}
		held[i] = fmt.Sprint(res.Rows)
	}
	if held[0] != held[1] {
		t.Errorf("leaf replicas differ:\n l0 %s\n l1 %s", held[0], held[1])
	}
}

// TestLocalPointReadAllocationBudget: an in-process point read through the
// public API allocates the result the engine built (the Result, its row
// list and its value slab), the Rows around it and the caller's copy of the
// header — no argument vector and no second wrapper (9 objects while each
// call converted its arguments into a new vector and the backend re-wrapped
// the engine's result).
func TestLocalPointReadAllocationBudget(t *testing.T) {
	_, vdb := newTestCluster(t, 2, VirtualDatabaseConfig{RecoveryLogPath: "memory"})
	sess, err := vdb.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, q := range []string{
		"CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)",
		"INSERT INTO kv (id, v, pad) VALUES (1, 1, 'p'), (2, 2, 'p'), (3, 3, 'p')",
	} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	args := []any{int64(2)}
	allocs := testing.AllocsPerRun(200, func() {
		rows, err := sess.Query("SELECT id, v, pad FROM kv WHERE id = ?", args...)
		if err != nil || rows.Len() != 1 {
			t.Fatalf("point read: %v", err)
		}
	})
	t.Logf("point read: %.1f allocations", allocs)
	if allocs > 5 {
		t.Errorf("point read: %.1f allocations, budget 5", allocs)
	}
}

// TestEarlyResponseWriteSurvivesVectorReuse: a session converts every
// call's arguments into one reused vector, cleared after the call. Under
// early response an UPDATE returns before its slow replica applies it, and
// the next call refills the vector at once; the slow replica must still
// apply, and the recovery log entry must still render to, the values the
// UPDATE was issued with.
func TestEarlyResponseWriteSurvivesVectorReuse(t *testing.T) {
	ctrl := NewController("reuse", 1)
	t.Cleanup(ctrl.Close)
	vdb, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "reuse", EarlyResponse: "first", RecoveryLogPath: "memory"})
	if err != nil {
		t.Fatal(err)
	}
	var engines []*sqlengine.Engine
	for i := 0; i < 2; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		t.Cleanup(e.Close)
		if err := vdb.AddEngineBackend(e.Name(), e); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	sess, err := vdb.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, q := range []string{
		"CREATE TABLE kv (id INTEGER PRIMARY KEY, v VARCHAR)",
		"INSERT INTO kv (id, v) VALUES (1, 'a'), (2, 'b')",
	} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	slow, err := vdb.Internal().Backend("db1")
	if err != nil {
		t.Fatal(err)
	}
	slow.SetFaultPlan(backend.NewFaultPlan(backend.Slow(backend.OpWrite, 20*time.Millisecond)))

	const update = "UPDATE kv SET v = ? WHERE id = ?"
	if _, err := sess.Exec(update, "issued", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(update, "next", 2); err != nil {
		t.Fatal(err)
	}
	const want = "1 issued, 2 next"
	for _, e := range engines {
		got := ""
		for deadline := time.Now().Add(2 * time.Second); got != want && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			es := e.NewSession()
			if res, err := es.ExecSQL("SELECT id, v FROM kv ORDER BY id"); err == nil && len(res.Rows) == 2 {
				got = fmt.Sprintf("%d %s, %d %s", res.Rows[0][0].I, res.Rows[0][1].S, res.Rows[1][0].I, res.Rows[1][1].S)
			}
			es.Close()
		}
		if got != want {
			t.Errorf("%s holds %s, want %s", e.Name(), got, want)
		}
	}
	entries, err := vdb.Internal().RecoveryLog().Since(0)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	for _, en := range entries {
		if strings.HasPrefix(en.SQL, "UPDATE") {
			logged = append(logged, en.Text())
		}
	}
	if got := strings.Join(logged, "; "); got != "UPDATE kv SET v = 'issued' WHERE (id = 1); UPDATE kv SET v = 'next' WHERE (id = 2)" {
		t.Errorf("logged %s", got)
	}
}

// TestFileLogReplaysParameterisedWrites: a virtual database configured with
// a file log stores each parameterised write as its rendering, so after the
// controller closes, a reopened log replays every write, parsed from its
// text, into a fresh copy that holds exactly what the live replica holds.
// The BLOB is valid UTF-8: the file's JSON lines replace invalid UTF-8 in a
// rendered literal with U+FFFD, so bytes such as 0xff do not survive the
// file log (a known limit of its text record).
func TestFileLogReplaysParameterisedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery.log")
	ctrl := NewController("filelog", 1)
	vdb, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "filelog", RecoveryLogPath: path})
	if err != nil {
		t.Fatal(err)
	}
	live := sqlengine.New("db0")
	t.Cleanup(live.Close)
	if err := vdb.AddEngineBackend("db0", live); err != nil {
		t.Fatal(err)
	}
	if err := vdb.AddInMemoryBackend("db1"); err != nil {
		t.Fatal(err)
	}
	sess, err := vdb.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, f FLOAT, s VARCHAR, ts TIMESTAMP, bl BLOB)"); err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2004, 6, 27, 12, 0, 0, 5, time.UTC)
	for _, w := range []struct {
		sql  string
		args []any
	}{
		{"INSERT INTO kv (id, v, f, s, ts, bl) VALUES (?, ?, ?, ?, ?, ?)", []any{1, math.MinInt64, -2.5e-7, `it's a \ "quote"`, ts, []byte{0, 'x', 0x7f}}},
		{"INSERT INTO kv (id, v, s) VALUES (?, ?, ?)", []any{2, nil, "ctl\x00\x01\n\t\x7f"}},
		{"INSERT INTO kv (id, v, s) VALUES (?, ?, ?)", []any{3, math.MaxInt64, "''"}},
		{"UPDATE kv SET v = v + ?, s = ? WHERE id = ?", []any{-7, true, 3}},
		{"UPDATE kv SET f = ? WHERE id >= ? AND id < ?", []any{1e300, 2, "4"}},
		{"DELETE FROM kv WHERE id IN (?, ?) OR s = ?", []any{2, -1, "none"}},
	} {
		if _, err := sess.Exec(w.sql, w.args...); err != nil {
			t.Fatalf("%s %v: %v", w.sql, w.args, err)
		}
	}
	sess.Close()
	ctrl.Close()

	log, err := recovery.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fresh := sqlengine.New("fresh")
	t.Cleanup(fresh.Close)
	copyB := backend.New(backend.Config{Name: "fresh", Driver: &backend.EngineDriver{Engine: fresh}})
	t.Cleanup(copyB.Close)
	if applied, err := recovery.ReplayParallel(log, 0, copyB, 1); err != nil || applied != 7 {
		t.Fatalf("replay applied %d of 7: %v", applied, err)
	}
	dump := func(e *sqlengine.Engine) string {
		d, err := recovery.TakeDump("file", &backend.EngineDriver{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(d.Tables)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if want, got := dump(live), dump(fresh); got != want {
		t.Fatalf("replayed copy differs from the live replica:\n--- live:\n%s\n--- copy:\n%s", want, got)
	}
}
