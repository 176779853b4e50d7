package sqlengine

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// rowKey renders a row as its composite key: two rows render alike iff
// their values are equal part by part under Value.AppendKey.
func rowKey(vals []sqlval.Value) string {
	return string(appendRowKey(nil, vals))
}

// A qualified star names one FROM entry by its exposed name — the alias
// when it has one, the table name otherwise — and yields exactly that
// entry's columns and values, whatever other entry shares the name.
func TestQualifiedStarScopesToExposedName(t *testing.T) {
	e := New("star")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE h (a INTEGER, b INTEGER)")
	mustExec(t, s, "CREATE TABLE t (c INTEGER, d INTEGER)")
	mustExec(t, s, "INSERT INTO h (a, b) VALUES (1, 2)")
	mustExec(t, s, "INSERT INTO t (c, d) VALUES (1, 4)")
	for _, tc := range []struct {
		sql  string
		cols string
		row  string
	}{
		{"SELECT t.* FROM h t JOIN t x ON t.a = x.c", "a b", "1 2"},
		{"SELECT t.* FROM t x JOIN h t ON t.a = x.c", "a b", "1 2"},
		{"SELECT x.*, t.b FROM t x JOIN h t ON t.a = x.c", "c d b", "1 4 2"},
		{"SELECT t.*, h.* FROM h JOIN t ON h.a = t.c", "c d a b", "1 4 1 2"},
		{"SELECT *, h.* FROM h JOIN t ON h.a = t.c", "a b c d a b", "1 2 1 4 1 2"},
		{"SELECT x.* FROM t x", "c d", "1 4"},
	} {
		res := mustExec(t, s, tc.sql)
		if got := strings.Join(res.Columns, " "); got != tc.cols {
			t.Errorf("%s: columns [%s], want [%s]", tc.sql, got, tc.cols)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", tc.sql, len(res.Rows))
		}
		var vals []string
		for _, v := range res.Rows[0] {
			vals = append(vals, v.AsString())
		}
		if got := strings.Join(vals, " "); got != tc.row {
			t.Errorf("%s: row [%s], want [%s]", tc.sql, got, tc.row)
		}
	}
	// An aliased table is no longer exposed under its name, and a name two
	// entries expose is ambiguous.
	for _, sql := range []string{
		"SELECT h.* FROM h x",
		"SELECT t.* FROM t JOIN t ON t.c = t.c",
		"SELECT z.* FROM h",
	} {
		if _, err := s.ExecSQL(sql); err == nil {
			t.Errorf("%s: no error", sql)
		}
	}
}

// Composite keys — multi-column indexes, GROUP BY and DISTINCT — must not
// let two different tuples meet: a string part may contain any byte,
// including a separator and the bytes that open another part's key.
func TestCompositeKeysAreInjective(t *testing.T) {
	e := New("composite")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, a VARCHAR, b VARCHAR)")
	mustExec(t, s, "CREATE UNIQUE INDEX u_ab ON u (a, b)")
	x := []sqlval.Value{sqlval.String_("p"), sqlval.String_("q\x1f\x00sr")}
	y := []sqlval.Value{sqlval.String_("p\x1f\x00sq"), sqlval.String_("r")}
	for i, tup := range [][]sqlval.Value{x, y} {
		sql := fmt.Sprintf("INSERT INTO u (id, a, b) VALUES (%d, %s, %s)", i, tup[0].SQLLiteral(), tup[1].SQLLiteral())
		if _, err := s.ExecSQL(sql); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if res := mustExec(t, s, "SELECT a, b, COUNT(*) FROM u GROUP BY a, b"); len(res.Rows) != 2 {
		t.Errorf("GROUP BY a, b: %d groups, want 2: %q", len(res.Rows), res.Rows)
	}
	if res := mustExec(t, s, "SELECT DISTINCT a, b FROM u"); len(res.Rows) != 2 {
		t.Errorf("DISTINCT a, b: %d rows, want 2: %q", len(res.Rows), res.Rows)
	}
	// The unique index still refuses a true duplicate.
	if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO u (id, a, b) VALUES (2, %s, %s)", x[0].SQLLiteral(), x[1].SQLLiteral())); err == nil {
		t.Error("duplicate (a, b) accepted")
	}
}

// FuzzCompositeKey: two tuples have equal composite keys iff they have
// the same arity and equal Value.AppendKey bytes part by part.
func FuzzCompositeKey(f *testing.F) {
	f.Add("p", "q\x1f\x00sr", "p\x1f\x00sq", "r", uint8(0), uint8(3))
	f.Add(strings.Repeat("x", 200), "y", strings.Repeat("x", 200), "y", uint8(0), uint8(3))
	f.Add("\x01", "", "", "\x01", uint8(0x11), uint8(1))
	f.Fuzz(func(t *testing.T, a, b, c, d string, kinds, arity uint8) {
		val := func(s string, kind uint8) sqlval.Value {
			switch kind & 3 {
			case 0:
				return sqlval.String_(s)
			case 1:
				return sqlval.Bytes([]byte(s))
			case 2:
				return sqlval.Int(int64(len(s)))
			}
			return sqlval.Null
		}
		x := []sqlval.Value{val(a, kinds), val(b, kinds>>2)}[:1+arity&1]
		y := []sqlval.Value{val(c, kinds>>4), val(d, kinds>>6)}[:1+arity>>1&1]
		same := len(x) == len(y)
		for i := 0; same && i < len(x); i++ {
			same = string(x[i].AppendKey(nil)) == string(y[i].AppendKey(nil))
		}
		if equal := rowKey(x) == rowKey(y); equal != same {
			t.Fatalf("%q and %q: keys equal %v, parts equal %v", x, y, equal, same)
		}
	})
}

// resultDB is a 2 000-row table: id is the primary key (ordered), g is
// unique (one group per row), g10 has ten values.
func resultDB(t *testing.T) *Session {
	t.Helper()
	e := New("result")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (id INTEGER PRIMARY KEY, g INTEGER, g10 INTEGER, name VARCHAR)")
	for i := 0; i < 2000; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO r (id, g, g10, name) VALUES (%d, %d, %d, 'n%d')", i, i, i%10, (i*7919)%2000))
	}
	return s
}

func parseOrFail(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// allocsOf is the allocations of one execution of sql with params bound,
// averaged.
func allocsOf(t *testing.T, s *Session, sql string, rows int, params ...sqlval.Value) float64 {
	t.Helper()
	st := parseOrFail(t, sql)
	if params != nil {
		st = &sqlparser.Bound{Stmt: st, SQL: sql, Params: params}
	}
	return testing.AllocsPerRun(50, func() {
		res, err := s.Exec(st)
		if err != nil || len(res.Rows) != rows {
			t.Fatalf("%s: %d rows, want %d (%v)", sql, len(res.Rows), rows, err)
		}
	})
}

// A SELECT allocates a constant number of objects whatever its row count:
// one slab of values per result, no environment, value slice or function
// argument slice per row,
// exact-size candidate lists, a sort of three slices. Grouping adds only
// its group table, which grows by doubling whatever the number of groups.
func TestResultAllocationsIndependentOfRows(t *testing.T) {
	s := resultDB(t)
	for _, tc := range []struct {
		q string
		// perRow is what the statement's own functions allocate per row:
		// UPPER maps the lower-case names to a new string.
		perRow float64
	}{
		{q: "SELECT id, name FROM r WHERE id >= 0 AND id < %d"},
		{q: "SELECT * FROM r WHERE id >= 0 AND id < %d"},
		{q: "SELECT id, name FROM r WHERE id >= 0 AND id < %d ORDER BY name"},
		{q: "SELECT id, name FROM r WHERE id >= 0 AND id < %d ORDER BY g10 DESC, id"},
		{q: "SELECT g10, COUNT(*), SUM(id) FROM r WHERE id >= 0 AND id < %d GROUP BY g10"},
		{q: "SELECT id, LOWER(name) FROM r WHERE id >= 0 AND id < %d"},
		{q: "SELECT id FROM r WHERE id >= 0 AND id < %d AND UPPER(name) LIKE ?", perRow: 1},
	} {
		q := tc.q
		small, large := fmt.Sprintf(q, 10), fmt.Sprintf(q, 1000)
		want := 10
		if !strings.Contains(q, "GROUP BY") {
			want = 1000
		}
		var params []sqlval.Value
		if strings.Contains(q, "?") {
			params = []sqlval.Value{sqlval.String_("N%")}
		}
		a, b := allocsOf(t, s, small, 10, params...), allocsOf(t, s, large, want, params...)
		t.Logf("%s: %.0f allocations at 10 rows, %.0f at 1000", q, a, b)
		if b-a > 2+tc.perRow*(1000-10) {
			t.Errorf("%s: %.0f allocations at 10 rows, %.0f at 1000", q, a, b)
		}
	}

	// One group per row. The group table is a key set: its map, entry slice
	// and key arena grow by doubling, so a hundred times the groups costs
	// O(log groups) more allocations, not one per group.
	q := "SELECT g, COUNT(*), SUM(id) FROM r WHERE id >= 0 AND id < %d GROUP BY g"
	a, b := allocsOf(t, s, fmt.Sprintf(q, 10), 10), allocsOf(t, s, fmt.Sprintf(q, 1000), 1000)
	bound := 4 * math.Log2(1000)
	t.Logf("%s: %.0f allocations at 10 groups, %.0f at 1000 (bound %.0f more)", q, a, b, bound)
	if b-a > bound {
		t.Errorf("%s: %.0f allocations at 10 groups, %.0f at 1000, more than %.0f apart", q, a, b, bound)
	}
}

// bytesOf is the bytes one execution of sql allocates, averaged over runs
// after a first execution that binds it.
func bytesOf(t *testing.T, s *Session, sql string) float64 {
	t.Helper()
	st := parseOrFail(t, sql)
	if _, err := s.Exec(st); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Exec(st); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// An aggregate's bytes do not grow with the rows it scans: a row is folded
// into its group as the scan yields it, with no list of WHERE survivors,
// and ORDER BY … LIMIT 3 keeps three groups, not all ten. Tables of 10 and
// 1 000 rows in ten groups, full scans.
func TestAggregateBytesIndependentOfRows(t *testing.T) {
	e := New("aggbytes")
	s := e.NewSession()
	defer s.Close()
	for _, n := range []int{10, 1000} {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE b%d (id INTEGER PRIMARY KEY, g INTEGER, x INTEGER)", n))
		for i := 0; i < n; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO b%d (id, g, x) VALUES (%d, %d, %d)", n, i, i%10, (i*7919)%1000))
		}
	}
	for _, q := range []string{
		"SELECT COUNT(*), MAX(x) FROM %s",
		"SELECT g, SUM(x) FROM %s GROUP BY g ORDER BY 2 DESC LIMIT 3",
	} {
		small, large := bytesOf(t, s, fmt.Sprintf(q, "b10")), bytesOf(t, s, fmt.Sprintf(q, "b1000"))
		t.Logf("%s: %.0f B at 10 rows, %.0f B at 1000", q, small, large)
		if large-small > 1024 {
			t.Errorf("%s: %.0f B at 10 rows, %.0f B at 1000", q, small, large)
		}
	}
}

// Result rows are capped views of one slab: appending to one row cannot
// write into the next, and scribbling over a result changes neither the
// stored rows nor the next identical SELECT.
func TestResultRowsDoNotAlias(t *testing.T) {
	s := resultDB(t)
	render := func(rows [][]sqlval.Value) string {
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(rowKey(r))
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, sql := range []string{
		"SELECT * FROM r WHERE id >= 5 AND id < 9",
		"SELECT id, name, g10 + 1 FROM r WHERE id >= 5 AND id < 9",
		"SELECT id, name FROM r WHERE id >= 5 AND id < 9 ORDER BY name DESC",
		"SELECT g10, COUNT(*), MIN(name) FROM r WHERE id < 50 GROUP BY g10",
		"SELECT DISTINCT g10 FROM r WHERE id < 50",
	} {
		res := mustExec(t, s, sql)
		want := render(res.Rows)
		second := render(res.Rows[1:2])
		_ = append(res.Rows[0], sqlval.String_("appended"))
		if got := render(res.Rows[1:2]); got != second {
			t.Errorf("%s: appending to row 0 changed row 1 to %q", sql, got)
		}
		for _, row := range res.Rows {
			for i := range row {
				row[i] = sqlval.String_("scribbled")
			}
		}
		if got := render(mustExec(t, s, sql).Rows); got != want {
			t.Errorf("%s: after writing into a result, the same SELECT returns\n%q, want\n%q", sql, got, want)
		}
	}
}

// A LIMIT that keeps few of many projected rows copies them out, so the
// result does not hold the whole sorted slab. Rows are capped, so their
// capacity cannot show what they pin; the live heap the result keeps can.
// Pinning would keep 10 000 rows × 2 values × 32 bytes = 640 KB.
func TestLimitedResultDoesNotPinSlab(t *testing.T) {
	e := New("pin")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE big (id INTEGER PRIMARY KEY, g INTEGER, name VARCHAR)")
	for i := 0; i < 10000; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big (id, g, name) VALUES (%d, %d, 'n%d')", i, i%1000, (i*7919)%10000))
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, sql := range []string{
		"SELECT id, name FROM big ORDER BY name LIMIT 10",
		"SELECT id, name FROM big ORDER BY name LIMIT 10 OFFSET 5000",
		"SELECT id, COUNT(*) FROM big GROUP BY id ORDER BY id DESC LIMIT 10",
	} {
		before := live()
		res := mustExec(t, s, sql)
		held := live() - before
		if len(res.Rows) != 10 {
			t.Fatalf("%s: %d rows, want 10", sql, len(res.Rows))
		}
		if held > 64<<10 {
			t.Errorf("%s: a 10-row result keeps %d bytes of heap alive", sql, held)
		}
		runtime.KeepAlive(res)
	}
}

// TestGroupingPoolReuse: GROUP BY's working memory goes back to a shared
// pool after a statement, so a grouping that follows a larger one
// reuses it; what comes back must read as new. Every query returns on a
// used engine exactly what it returns on a fresh one, and a grouping past
// groupMemCap groups is not kept.
func TestGroupingPoolReuse(t *testing.T) {
	load := func() (*Engine, *Session) {
		e := New("pool")
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE g (id INTEGER PRIMARY KEY, k INTEGER, c INTEGER, name VARCHAR, v INTEGER)")
		for i := 0; i < 3000; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO g (id, k, c, name, v) VALUES (%d, %d, %d, 'n%d', %d)", i, i, i%10, (i*7919)%3000, i%13))
		}
		return e, s
	}
	big := "SELECT k, COUNT(*), SUM(v), MIN(name) FROM g GROUP BY k"
	queries := []string{
		"SELECT c, COUNT(*), SUM(v), MIN(name), MAX(v), AVG(v), COUNT(DISTINCT v) FROM g GROUP BY c",
		"SELECT k % 1000 AS m, SUM(v) FROM g GROUP BY k % 1000 ORDER BY m DESC LIMIT 5",
		"SELECT c, v, COUNT(*) FROM g GROUP BY c, v ORDER BY c, v",
		"SELECT COUNT(*), SUM(v), MAX(name) FROM g",
		"SELECT COUNT(*), SUM(v) FROM g WHERE id < 0",
		"SELECT c, MAX(v) FROM g WHERE id < 0 GROUP BY c",
	}

	_, us := load()
	for groupMems.Get() != nil { // what earlier groupings left
	}
	res := mustExec(t, us, big)
	if len(res.Rows) != 3000 {
		t.Fatalf("%s: %d groups", big, len(res.Rows))
	}
	if m, _ := groupMems.Get().(*groupMem); m != nil {
		t.Fatalf("a grouping of 3000 groups was kept (room for %d)", cap(m.firsts))
	}
	_, fs := load()
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			got, want := mustExec(t, us, q), mustExec(t, fs, q)
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Fatalf("%s: used engine %v, fresh engine %v", q, got.Rows, want.Rows)
			}
		}
		// What the pool keeps is empty.
		if m, _ := groupMems.Get().(*groupMem); m != nil {
			if len(m.ints) != 0 || len(m.firsts) != 0 || len(m.accs) != 0 || cap(m.firsts) > groupMemCap {
				t.Fatalf("pooled grouping memory not cleared: %d keys, %d groups, %d accumulators, room for %d", len(m.ints), len(m.firsts), len(m.accs), cap(m.firsts))
			}
			for _, a := range m.accs[:cap(m.accs)] {
				if a != (aggAcc{}) {
					t.Fatalf("pooled accumulator not cleared: %+v", a)
				}
			}
			groupMems.Put(m)
		}
	}
}
