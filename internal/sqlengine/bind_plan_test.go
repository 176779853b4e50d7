package sqlengine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// TestBindEqualsLiteralPlans: the access planner reads a placeholder
// operand as the literal its vector binds, so a bound statement takes the
// same index probe, range, IN union and ORDER BY plan as a clone of it with
// the values bound in — not a full scan. Each plans from its own binding.
func TestBindEqualsLiteralPlans(t *testing.T) {
	e := New("plans")
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR)")
	mustExec(t, s, "CREATE INDEX kv_s ON kv (s)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv (id, v, s) VALUES (%d, %d, 's%03d')", i, i%7, i))
	}
	tbl := e.tables["kv"]
	for _, tc := range []struct {
		sql    string
		params []sqlval.Value
	}{
		{"SELECT v FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(42)}},
		{"SELECT v FROM kv WHERE ? = s", []sqlval.Value{sqlval.String_("s042")}},
		{"SELECT v FROM kv WHERE id IN (?, ?, 7)", []sqlval.Value{sqlval.Int(3), sqlval.Int(150)}},
		{"SELECT v FROM kv WHERE id >= ? AND id < ? ORDER BY id", []sqlval.Value{sqlval.Int(50), sqlval.Int(100)}},
		{"SELECT v FROM kv WHERE ? < id ORDER BY id DESC LIMIT 5", []sqlval.Value{sqlval.Int(190)}},
		{"SELECT v FROM kv WHERE id BETWEEN ? AND ? ORDER BY id", []sqlval.Value{sqlval.Int(10), sqlval.Int(20)}},
		{"SELECT v FROM kv WHERE s BETWEEN ? AND ? AND v = ?", []sqlval.Value{sqlval.String_("s100"), sqlval.String_("s110"), sqlval.Int(3)}},
		{"SELECT id, v FROM kv WHERE id < ? ORDER BY ?", []sqlval.Value{sqlval.Int(5), sqlval.Int(1)}},
	} {
		st, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqlparser.Select)
		bound := st.Clone().(*sqlparser.Select)
		if err := sqlparser.BindParams(bound, tc.params); err != nil {
			t.Fatal(err)
		}
		bs, bb := bindOf(t, s, sel), bindOf(t, s, bound)
		got := planAccess(e, tbl, bs.conj, tc.params)
		want := planAccess(e, tbl, bb.conj, nil)
		if !want.indexed {
			t.Fatalf("%s: the bound clone does not plan an index", tc.sql)
		}
		if got.indexed != want.indexed || !slices.Equal(got.refs, want.refs) {
			t.Errorf("%s %v: planned %d candidates (indexed %v), the bound clone %d",
				tc.sql, tc.params, len(got.refs), got.indexed, len(want.refs))
		}
		gotOrder := planOrder(e, tbl, bs, sel, tc.params)
		wantOrder := planOrder(e, tbl, bb, bound, nil)
		if gotOrder.done != wantOrder.done || gotOrder.scan != wantOrder.scan || !sameBound(gotOrder.lo, wantOrder.lo) || !sameBound(gotOrder.hi, wantOrder.hi) {
			t.Errorf("%s %v: order plan %+v, the bound clone %+v", tc.sql, tc.params, gotOrder, wantOrder)
		}
	}
}

// bindOf is sel's binding in session s, as execution would find it.
func bindOf(t *testing.T, s *Session, sel *sqlparser.Select) *binding {
	t.Helper()
	s.engine.mu.RLock(s.shard)
	defer s.engine.mu.RUnlock(s.shard)
	b, err := s.bindSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameBound(a, b *rangeBound) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.incl == b.incl && a.v == b.v
}

// TestBoundPlanFollowsCatalog: one parsed tree re-executed across catalog
// changes answers exactly as a fresh parse of its text does — after CREATE
// INDEX, after DROP INDEX, after DROP TABLE and a CREATE TABLE of the same
// name with other columns; on two engines that share the tree; and in a
// session whose temporary table shadows the name while another session
// reads the ordinary table.
func TestBoundPlanFollowsCatalog(t *testing.T) {
	texts := []string{
		"SELECT * FROM t WHERE b = 3",
		"SELECT a, c FROM t WHERE a >= 2 AND a < 40 ORDER BY a DESC LIMIT 4",
		"SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b",
		"SELECT t.a, u.v FROM t JOIN u ON t.b = u.k WHERE t.a < 30 ORDER BY t.a, u.v",
		"UPDATE t SET b = b + 0 WHERE b = 3",
		"DELETE FROM t WHERE a = 1000",
		"INSERT INTO u (k, v) VALUES (1000, 'x')",
	}
	trees := make([]sqlparser.Statement, len(texts))
	for i, q := range texts {
		trees[i] = parseOrFail(t, q)
	}
	// check runs every tree in s and compares it with a fresh parse.
	check := func(step string, s *Session) {
		t.Helper()
		for i, q := range texts {
			got, gotErr := s.Exec(trees[i])
			want, wantErr := s.ExecSQL(q)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %s: error %v, a fresh parse %v", step, q, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if g, w := fmt.Sprint(got.Columns, got.Rows, got.RowsAffected), fmt.Sprint(want.Columns, want.Rows, want.RowsAffected); g != w {
				t.Fatalf("%s: %s:\n got  %s\n want %s", step, q, g, w)
			}
		}
	}
	load := func(s *Session, cols string, rows int) {
		t.Helper()
		mustExec(t, s, "CREATE TABLE t ("+cols+")")
		for i := 0; i < rows; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t (a, b, c) VALUES (%d, %d, 'c%d')", i, i%7, i%5))
		}
	}
	e1, e2 := New("one"), New("two")
	s1, s2 := e1.NewSession(), e2.NewSession()
	defer s1.Close()
	defer s2.Close()
	for _, s := range []*Session{s1, s2} {
		mustExec(t, s, "CREATE TABLE u (k INTEGER, v VARCHAR)")
		for i := 0; i < 7; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO u (k, v) VALUES (%d, 'v%d')", i, i))
		}
	}
	load(s1, "a INTEGER PRIMARY KEY, b INTEGER, c VARCHAR", 50)
	load(s2, "c VARCHAR, b INTEGER, a INTEGER PRIMARY KEY, pad VARCHAR", 30)

	check("first run", s1)
	check("second engine", s2)
	check("first engine again", s1)
	mustExec(t, s1, "CREATE INDEX t_b ON t (b)")
	mustExec(t, s1, "CREATE INDEX u_k ON u (k)")
	check("after CREATE INDEX", s1)
	mustExec(t, s1, "DROP INDEX t_b ON t")
	// Rows the dropped index never sees.
	mustExec(t, s1, "INSERT INTO t (a, b, c) VALUES (100, 3, 'late'), (101, 3, 'late')")
	check("after DROP INDEX", s1)
	mustExec(t, s1, "DROP TABLE t")
	// Another session's temporary table takes the free name; the new
	// ordinary table of that name is shadowed in that session only.
	other := e1.NewSession()
	defer other.Close()
	mustExec(t, other, "CREATE TEMPORARY TABLE t (b INTEGER, a INTEGER, c VARCHAR)")
	for i := 0; i < 12; i++ {
		mustExec(t, other, fmt.Sprintf("INSERT INTO t (a, b, c) VALUES (%d, %d, 'tmp%d')", i*3, i%4, i))
	}
	load(s1, "pad VARCHAR, c VARCHAR, a INTEGER PRIMARY KEY, b INTEGER", 45)
	check("after DROP and CREATE TABLE", s1)
	check("shadowed by a temporary table", other)
	check("beside another session's temporary table", s1)
	check("shadowed again", other)
	tmp, _ := other.tempGet("t")
	for _, tree := range trees {
		if sel, ok := tree.(*sqlparser.Select); ok {
			if b, _ := sel.Bind.Load(e1).(*binding); b != nil && slices.ContainsFunc(b.srcs, func(src srcTable) bool { return src.t == tmp }) {
				t.Fatalf("%v: a binding of a temporary table was kept", sel)
			}
		}
	}
	mustExec(t, other, "DROP TABLE t")
	check("temporary table dropped", other)
	check("second engine after the first's DDL", s2)

	// Re-executions at an unchanged epoch reuse the kept binding.
	sel := trees[0].(*sqlparser.Select)
	kept := sel.Bind.Load(e1)
	check("unchanged catalog", s1)
	if kept == nil || sel.Bind.Load(e1) != kept {
		t.Fatal("re-execution at an unchanged epoch bound the tree again")
	}
}

// TestDroppedTableFreedWithItsBindings: a kept binding holds the table it
// names, so after DROP TABLE the table stays reachable while a tree bound
// to it lives. Each such tree lets it go when it runs again (the stale
// binding is dropped, and the tree fails to bind) or when the tree itself
// is let go, as the plan cache does on eviction.
func TestDroppedTableFreedWithItsBindings(t *testing.T) {
	e := New("drop")
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE d (id INTEGER PRIMARY KEY, v VARCHAR)")
	mustExec(t, s, "CREATE INDEX d_v ON d (v)")
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO d (id, v) VALUES (%d, 'v%d')", i, i))
	}
	again := parseOrFail(t, "SELECT v FROM d WHERE id = 3")
	evicted := parseOrFail(t, "UPDATE d SET v = 'x' WHERE v = 'y'")
	for _, tree := range []sqlparser.Statement{again, evicted} {
		if _, err := s.Exec(tree); err != nil {
			t.Fatal(err)
		}
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(e.tables["d"], func(*table) { close(freed) })
	mustExec(t, s, "DROP TABLE d")

	collected := func() bool {
		for i := 0; i < 5; i++ {
			runtime.GC()
			select {
			case <-freed:
				return true
			case <-time.After(20 * time.Millisecond):
			}
		}
		return false
	}
	if collected() {
		t.Fatal("the dropped table was collected while two trees kept bindings of it")
	}
	var notFound *TableNotFoundError
	if _, err := s.Exec(again); !errors.As(err, &notFound) {
		t.Fatalf("re-running a tree of the dropped table: %v, want table not found", err)
	}
	if collected() {
		t.Fatal("the dropped table was collected while one tree kept a binding of it")
	}
	runtime.KeepAlive(evicted)
	evicted = nil
	if !collected() {
		t.Fatal("the dropped table stayed reachable after its trees re-ran or were let go")
	}
	runtime.KeepAlive(again)
}
