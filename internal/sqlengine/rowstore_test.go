package sqlengine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// pointInsert renders one multi-row INSERT of the point schema (id, v, pad)
// for ids [lo, lo+n), with the 31-byte pads the benchmark loads.
func pointInsert(lo, n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO kv (id, v, pad) VALUES ")
	for id := lo; id < lo+n; id++ {
		if id > lo {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'pad-0-%08d-................')", id, id, id)
	}
	return sb.String()
}

// TestStoredRowBytes holds the engine's bytes per stored row of the point
// schema. Every replica pays them for every row, so they are most of the
// heap a loaded cluster holds. A row is its values and pad, its chain and
// version, its rowid in the rows map, one scan-order pointer and one
// primary-key entry: an int64-keyed hash slot naming a skiplist node that
// holds the row's ref and, three times in four, its tower inline. Not
// parallel: it reads the process-wide live heap.
func TestStoredRowBytes(t *testing.T) {
	const rows = 10000
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	e := New("rowbytes")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)")
	before := live()
	for lo := 0; lo < rows; lo += 500 {
		mustExec(t, s, pointInsert(lo, 500))
	}
	perRow := float64(live()-before) / rows
	runtime.KeepAlive(s)
	t.Logf("%.1f bytes per stored row", perRow)
	if perRow > 390 {
		t.Errorf("a stored row takes %.1f bytes, want <= 390", perRow)
	}
}

// TestInsertAllocsPerRow: a multi-row INSERT allocates what it stores and
// little else. The row needs four objects — its value slice, chain and
// first version, and the primary key's skiplist node, which holds the
// row's ref and a tower of level 1 or 2 inline — plus a tower for the one
// node in four that stands higher; the rest is map and slab growth,
// amortized. A value or flag slice per row on top would break the bound.
func TestInsertAllocsPerRow(t *testing.T) {
	const rows = 500
	e := New("insallocs")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)")
	// One statement for AllocsPerRun's warm-up call, one for the measured.
	stmts := []sqlparser.Statement{parseOrFail(t, pointInsert(0, rows)), parseOrFail(t, pointInsert(rows, rows))}
	allocs := testing.AllocsPerRun(1, func() {
		res, err := s.Exec(stmts[0])
		if err != nil || res.RowsAffected != rows {
			t.Fatalf("insert: %v, %d rows", err, res.RowsAffected)
		}
		stmts = stmts[1:]
	})
	t.Logf("%d-row INSERT: %.0f allocations, %.2f per row", rows, allocs, allocs/rows)
	if allocs > 5*rows {
		t.Errorf("%d-row INSERT: %.0f allocations, want <= %d", rows, allocs, 5*rows)
	}
}

// checkSharedBuckets asserts that every single-column index of t maps each
// key to the ref list of a linked skiplist node with that key, and holds
// exactly one key per node: no key survives the node it named.
func checkSharedBuckets(t *testing.T, tbl *table) {
	t.Helper()
	for name, ix := range tbl.indexes {
		if ix.ord == nil {
			continue
		}
		nodes := 0
		for n := ix.ord.head.next[0].Load(); n != nil; n = n.next[0].Load() {
			nodes++
			if ix.get(valueKey(nil, n.key)) != &n.idBucket {
				t.Errorf("%s: key %v does not map to its node's ref list", name, n.key)
			}
		}
		if keys := len(ix.ints) + len(ix.m); keys != nodes {
			t.Errorf("%s: %d keys in the hash maps, %d linked nodes", name, keys, nodes)
		}
	}
}

// TestSharedBucketAfterGC deletes every row of a key, reclaims, and inserts
// the key again: the sweep unlinks the node and drops its key from the
// hash map, so the new rows get a new node that the hash probe, the
// ordered range and the full scan all reach.
func TestSharedBucketAfterGC(t *testing.T) {
	e := New("shared")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)")
	mustExec(t, s, "CREATE INDEX p_k ON p (k)")
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO p (id, k, v) VALUES (%d, %d, %d)", i, i%4, i))
	}
	mustExec(t, s, "DELETE FROM p WHERE k = 2")
	mustExec(t, s, "UPDATE p SET k = 5 WHERE k = 1 AND id < 20") // stale refs on a surviving key
	e.GC()
	tbl := e.tables["p"]
	if tbl.indexes["p_k"].get(valueKey(nil, sqlval.Int(2))) != nil {
		t.Fatal("the key of a reclaimed node is still in the hash map")
	}
	checkSharedBuckets(t, tbl)

	for i := 100; i < 105; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO p (id, k, v) VALUES (%d, 2, %d)", i, i))
	}
	mustExec(t, s, "DELETE FROM p WHERE id = 0") // a primary-key node goes too
	e.GC()
	checkSharedBuckets(t, tbl)

	render := func(sql string) string {
		var b strings.Builder
		for _, r := range mustExec(t, s, sql).Rows {
			b.WriteString(rowKey(r))
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, k := range []int{1, 2, 5} {
		full := render(fmt.Sprintf("SELECT id, k, v FROM p WHERE k + 0 = %d ORDER BY id", k))
		if full == "" {
			t.Fatalf("k = %d: no rows", k)
		}
		for _, q := range []string{
			"SELECT id, k, v FROM p WHERE k = %d",
			"SELECT id, k, v FROM p WHERE k >= %[1]d AND k <= %[1]d",
			"SELECT id, k, v FROM p WHERE k >= %[1]d AND k <= %[1]d ORDER BY k LIMIT 100",
		} {
			if got := render(fmt.Sprintf(q, k)); got != full {
				t.Errorf("%s: got\n%swant\n%s", fmt.Sprintf(q, k), got, full)
			}
		}
	}
}

// refIDsAscending reports whether refs run strictly ascending by rowid.
func refIDsAscending(refs []*rowChain) bool {
	for i := 1; i < len(refs); i++ {
		if refs[i].id <= refs[i-1].id {
			return false
		}
	}
	return true
}

// TestAddIndexOnPopulatedTableKeepsRowidOrder: CREATE INDEX on a loaded
// table walks the rows in rowid order, so its ref lists come out sorted and
// a probe through them costs what it costs through an index that existed
// before the load — no copy-and-sort per probe.
func TestAddIndexOnPopulatedTableKeepsRowidOrder(t *testing.T) {
	load := func(indexFirst bool) (*Engine, *Session) {
		e := New("addidx")
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, cat INTEGER)")
		if indexFirst {
			mustExec(t, s, "CREATE INDEX p_cat ON p (cat)")
		}
		for i := 0; i < 1000; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO p (id, cat) VALUES (%d, %d)", i, i%10))
		}
		if !indexFirst {
			mustExec(t, s, "CREATE INDEX p_cat ON p (cat)")
		}
		return e, s
	}
	eb, sb := load(true)
	ea, sa := load(false)
	for _, e := range []*Engine{eb, ea} {
		ix := e.tables["p"].indexes["p_cat"]
		for key, bkt := range ix.ints {
			if !refIDsAscending(bkt.refs) {
				t.Errorf("bucket %d is out of rowid order", key)
			}
		}
		for n := ix.ord.head.next[0].Load(); n != nil; n = n.next[0].Load() {
			if !refIDsAscending(n.refs) {
				t.Errorf("node %v is out of rowid order", n.key)
			}
		}
	}
	const q = "SELECT id FROM p WHERE cat = 3"
	if before, after := allocsOf(t, sb, q, 100), allocsOf(t, sa, q, 100); after != before {
		t.Errorf("%s: %.0f allocations through an index built after the load, %.0f before", q, after, before)
	}
}

// TestAddIndexIsDeterministic: two engines applying one statement stream,
// CREATE INDEX on a loaded table last, build skiplists with the same tower
// heights in key order — as replicas must. The threshold keeps the 50
// superseded versions unreclaimed, so the index is built over stale refs
// too.
func TestAddIndexIsDeterministic(t *testing.T) {
	heights := func() []int {
		e := New("det", WithGCThreshold(1<<20))
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, k INTEGER)")
		for i := 0; i < 500; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO p (id, k) VALUES (%d, %d)", i, (i*7919)%500))
		}
		mustExec(t, s, "UPDATE p SET k = k + 1000 WHERE id < 50")
		mustExec(t, s, "CREATE INDEX p_k ON p (k)")
		var hs []int
		for n := e.tables["p"].indexes["p_k"].ord.head.next[0].Load(); n != nil; n = n.next[0].Load() {
			hs = append(hs, len(n.next))
		}
		return hs
	}
	a, b := heights(), heights()
	if len(a) != 550 {
		t.Fatalf("%d nodes, want 550 (500 keys and 50 updated ones)", len(a))
	}
	if !slices.Equal(a, b) {
		t.Errorf("two engines built different towers from one statement stream")
	}
}

// TestIntegerKeysShareOneBucket: a single-column index keeps an
// integer-class key (an INTEGER, a BOOLEAN, an integral FLOAT) as an int64
// and every other key as its bytes, and a probe finds a row whichever
// spelling of its key it uses: 1, 1.0 and TRUE reach one bucket, on an
// INTEGER column and on a FLOAT one, through the planner exactly as
// through a forced scan. 1.5 is a bytes key that no INTEGER matches, NULL
// is a key like any other, a unique FLOAT index sees 1 and 1.0 as one key,
// and a key an UPDATE moves is found under its new spelling. Once GC
// unlinks a node, neither map keeps its key.
func TestIntegerKeysShareOneBucket(t *testing.T) {
	e := New("intkeys")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE f (id INTEGER PRIMARY KEY, i INTEGER, x FLOAT)")
	mustExec(t, s, "CREATE INDEX f_i ON f (i)")
	mustExec(t, s, "CREATE INDEX f_x ON f (x)")
	mustExec(t, s, `INSERT INTO f (id, i, x) VALUES (1, 1, 1.0), (2, 1, 1.5), (3, 2, 2.0),
		(4, NULL, NULL), (5, 1, 1), (6, 3, 2.5), (7, TRUE, TRUE)`)
	tbl := e.tables["f"]
	ids := func(sql string) string {
		var b strings.Builder
		for _, r := range mustExec(t, s, sql).Rows {
			fmt.Fprintf(&b, "%d ", r[0].I)
		}
		return b.String()
	}
	probe := func(col, lit, want string) {
		t.Helper()
		sql := fmt.Sprintf("SELECT id FROM f WHERE %s = %s ORDER BY id", col, lit)
		sel := parseOrFail(t, sql).(*sqlparser.Select)
		if !planAccess(e, tbl, bindOf(t, s, sel).conj, nil).indexed {
			t.Errorf("%s: not planned through the index", sql)
		}
		if got := ids(sql); got != want {
			t.Errorf("%s: ids %q, want %q", sql, got, want)
		}
		e.noIndexPlan.Store(true)
		if got := ids(sql); got != want {
			t.Errorf("%s, scanned: ids %q, want %q", sql, got, want)
		}
		e.noIndexPlan.Store(false)
	}
	for _, lit := range []string{"1", "1.0", "TRUE"} {
		probe("i", lit, "1 2 5 7 ")
		probe("x", lit, "1 5 7 ")
	}
	probe("i", "1.5", "")
	probe("x", "1.5", "2 ")
	if got := ids("SELECT id FROM f WHERE x IS NULL ORDER BY id"); got != "4 " {
		t.Errorf("x IS NULL: ids %q, want \"4 \"", got)
	}
	ix := tbl.indexes["f_x"]
	if one := ix.ints[1]; one == nil || len(one.refs) != 3 {
		t.Errorf("f_x: integer key 1 holds %v, want the refs of rows 1, 5 and 7", one)
	}
	for _, v := range []sqlval.Value{sqlval.Float(1.5), sqlval.Null} {
		if bkt := ix.m[string(v.AppendKey(nil))]; bkt == nil || len(bkt.refs) != 1 {
			t.Errorf("f_x: key %v holds %v, want one ref under its bytes", v, bkt)
		}
	}
	checkSharedBuckets(t, tbl)

	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, x FLOAT)")
	mustExec(t, s, "CREATE UNIQUE INDEX u_x ON u (x)")
	mustExec(t, s, "INSERT INTO u (id, x) VALUES (1, 1), (2, 1.5)")
	for _, sql := range []string{
		"INSERT INTO u (id, x) VALUES (3, 1.0)",
		"INSERT INTO u (id, x) VALUES (3, TRUE)",
		"INSERT INTO u (id, x) VALUES (3, 1.5)",
		"UPDATE u SET x = 1.0 WHERE id = 2",
		"CREATE UNIQUE INDEX f_xu ON f (x)",
	} {
		if _, err := s.ExecSQL(sql); err == nil || !strings.Contains(err.Error(), "unique constraint violation") {
			t.Errorf("%s: error %v, want a unique constraint violation", sql, err)
		}
	}
	mustExec(t, s, "UPDATE u SET x = 2.0 WHERE id = 1")
	mustExec(t, s, "INSERT INTO u (id, x) VALUES (3, 1.0)")

	mustExec(t, s, "UPDATE f SET x = 1.5 WHERE id = 1")
	probe("x", "1.5", "1 2 ")
	probe("x", "1", "5 7 ")
	mustExec(t, s, "DELETE FROM f WHERE id IN (3, 6)") // the only rows of 2.0 and 2.5, and of i 2 and 3
	e.GC()
	for _, name := range []string{"f_i", "f_x"} {
		ix := tbl.indexes[name]
		if ix.ints[2] != nil || ix.ints[3] != nil || ix.m[string(sqlval.Float(2.5).AppendKey(nil))] != nil {
			t.Errorf("%s: a key whose rows were reclaimed is still mapped", name)
		}
	}
	checkSharedBuckets(t, tbl)
	probe("x", "2.0", "")
	probe("x", "2.5", "")
	probe("i", "2", "")
}
