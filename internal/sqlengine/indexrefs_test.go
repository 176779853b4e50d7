package sqlengine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cjdbc/internal/sqlval"
)

// indexShape counts an index's distinct keys in its hash maps and, for a
// single-column index, the nodes linked on its skiplist.
func indexShape(ix *index) (keys, nodes int) {
	keys = len(ix.ints) + len(ix.m)
	if ix.ord != nil {
		for n := ix.ord.head.next[0].Load(); n != nil; n = n.next[0].Load() {
			nodes++
		}
	}
	return keys, nodes
}

// TestIndexRefsFollowKeyMoves walks one row's indexed INTEGER column, and
// another row's primary key, through 1 000 values. Each version the purge
// cuts takes its key's ref with it, so after GC each index holds one key on
// one node — not one per value the row ever had — and the planned range and
// top-k reads still equal their forced full scans.
func TestIndexRefsFollowKeyMoves(t *testing.T) {
	const moves = 1000
	e := New("keymoves")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE m (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE INDEX m_k ON m (k)")
	mustExec(t, s, "INSERT INTO m (id, k) VALUES (1, 0)")
	mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO p (id, v) VALUES (0, 7)")
	for i := 1; i <= moves; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE m SET k = %d WHERE id = 1", i))
		mustExec(t, s, fmt.Sprintf("UPDATE p SET id = %d WHERE id = %d", i, i-1))
	}
	e.GC()
	for _, c := range []struct{ table, index string }{{"m", "m_k"}, {"m", "__pk"}, {"p", "__pk"}} {
		tbl := e.tables[c.table]
		if keys, nodes := indexShape(tbl.indexes[c.index]); keys != 1 || nodes != 1 {
			t.Errorf("%s.%s after %d key moves and GC: %d keys on %d nodes, want 1 on 1",
				c.table, c.index, moves, keys, nodes)
		}
		checkSharedBuckets(t, tbl)
	}
	for _, q := range []string{
		"SELECT id, k FROM m WHERE k < 500",
		"SELECT id, k FROM m WHERE k > 500",
		"SELECT id, k FROM m ORDER BY k DESC LIMIT 5",
		"SELECT id, v FROM p WHERE id < 500",
		"SELECT id, v FROM p WHERE id >= 500 ORDER BY id DESC LIMIT 5",
	} {
		runBothPlans(t, e, s, q)
	}
	if res := mustExec(t, s, "SELECT id, v FROM p WHERE id = 1000"); len(res.Rows) != 1 || res.Rows[0][1].I != 7 {
		t.Errorf("the moved primary key: %v, want one row (1000, 7)", res.Rows)
	}
}

// bucketIDs returns the rowids under the key vals (one per column of index
// name) in tbl, in list order, or nil when the key has no bucket.
func bucketIDs(tbl *table, name string, vals ...sqlval.Value) []int64 {
	ix := tbl.indexes[name]
	row := make([]sqlval.Value, len(tbl.schema.Columns))
	for i, c := range ix.columns {
		row[c] = vals[i]
	}
	bkt := ix.get(ix.keyOf(nil, row))
	if bkt == nil {
		return nil
	}
	var ids []int64
	for _, ch := range bkt.live(tbl) {
		ids = append(ids, ch.id)
	}
	return ids
}

// rowidOf returns the rowid of the row whose newest version has primary key
// (first column) pk.
func rowidOf(t *testing.T, tbl *table, pk int64) int64 {
	t.Helper()
	for id, ch := range tbl.rows {
		if v := ch.head.Load(); v != nil && v.row != nil && v.row[0].I == pk {
			return id
		}
	}
	t.Fatalf("no row with primary key %d", pk)
	return 0
}

// wantBucket asserts the rowids under a key, nil meaning no bucket at all.
func wantBucket(t *testing.T, step string, tbl *table, name string, key sqlval.Value, want ...int64) {
	t.Helper()
	if got := bucketIDs(tbl, name, key); !slices.Equal(got, want) {
		t.Errorf("%s: %s[%v] holds rowids %v, want %v", step, name, key, got, want)
	}
}

// TestIndexRefsUndo rolls back key-moving UPDATEs of an indexed column and
// of the primary key, an INSERT, a transaction that stacks several moves on
// one row, and a failed multi-row INSERT: each undo drops the refs its
// versions added, so the indexes end as they began — one key on one node.
func TestIndexRefsUndo(t *testing.T) {
	e := New("undo")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE m (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE INDEX m_k ON m (k)")
	mustExec(t, s, "INSERT INTO m (id, k) VALUES (1, 10)")
	tbl := e.tables["m"]
	r1 := rowidOf(t, tbl, 1)
	check := func(step string) {
		t.Helper()
		wantBucket(t, step, tbl, "m_k", sqlval.Int(10), r1)
		wantBucket(t, step, tbl, "__pk", sqlval.Int(1), r1)
		for _, name := range []string{"m_k", "__pk"} {
			if keys, nodes := indexShape(tbl.indexes[name]); keys != 1 || nodes != 1 {
				t.Errorf("%s: %s has %d keys on %d nodes, want 1 on 1", step, name, keys, nodes)
			}
		}
		checkSharedBuckets(t, tbl)
	}
	check("start")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE m SET k = 20 WHERE id = 1")
	wantBucket(t, "uncommitted key move", tbl, "m_k", sqlval.Int(20), r1)
	wantBucket(t, "uncommitted key move", tbl, "m_k", sqlval.Int(10), r1)
	mustExec(t, s, "ROLLBACK")
	wantBucket(t, "rolled-back key move", tbl, "m_k", sqlval.Int(20))
	check("rolled-back key move")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE m SET id = 2 WHERE id = 1")
	wantBucket(t, "uncommitted primary-key move", tbl, "__pk", sqlval.Int(2), r1)
	mustExec(t, s, "ROLLBACK")
	wantBucket(t, "rolled-back primary-key move", tbl, "__pk", sqlval.Int(2))
	check("rolled-back primary-key move")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO m (id, k) VALUES (3, 30)")
	r3 := rowidOf(t, tbl, 3)
	wantBucket(t, "uncommitted insert", tbl, "m_k", sqlval.Int(30), r3)
	wantBucket(t, "uncommitted insert", tbl, "__pk", sqlval.Int(3), r3)
	mustExec(t, s, "ROLLBACK")
	wantBucket(t, "rolled-back insert", tbl, "m_k", sqlval.Int(30))
	wantBucket(t, "rolled-back insert", tbl, "__pk", sqlval.Int(3))
	check("rolled-back insert")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE m SET k = 20 WHERE id = 1")
	mustExec(t, s, "UPDATE m SET k = 10 WHERE id = 1")
	mustExec(t, s, "UPDATE m SET k = 30, id = 4 WHERE id = 1")
	wantBucket(t, "stacked moves", tbl, "m_k", sqlval.Int(10), r1)
	mustExec(t, s, "ROLLBACK")
	wantBucket(t, "rolled-back stacked moves", tbl, "m_k", sqlval.Int(20))
	wantBucket(t, "rolled-back stacked moves", tbl, "m_k", sqlval.Int(30))
	wantBucket(t, "rolled-back stacked moves", tbl, "__pk", sqlval.Int(4))
	check("rolled-back stacked moves")

	if _, err := s.ExecSQL("INSERT INTO m (id, k) VALUES (5, 50), (1, 60)"); err == nil {
		t.Fatal("an INSERT of a live primary key succeeded")
	}
	wantBucket(t, "failed insert", tbl, "m_k", sqlval.Int(50))
	wantBucket(t, "failed insert", tbl, "__pk", sqlval.Int(5))
	check("failed insert")

	e.GC()
	check("after GC")
	runBothPlans(t, e, s, "SELECT id, k FROM m WHERE k >= 0 ORDER BY k DESC LIMIT 3")
}

// TestIndexRefsABA moves a row's key A→B→A beside two other rows under A,
// with a pinned reader holding the old versions: A keeps exactly one ref
// per row throughout, and B's ref — held only by the middle version — goes
// when the purge cuts that version.
func TestIndexRefsABA(t *testing.T) {
	e := New("aba")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE m (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE INDEX m_k ON m (k)")
	mustExec(t, s, "INSERT INTO m (id, k) VALUES (1, 10), (2, 10), (3, 10)")
	tbl := e.tables["m"]
	r1, r2, r3 := rowidOf(t, tbl, 1), rowidOf(t, tbl, 2), rowidOf(t, tbl, 3)

	rd := e.NewSession()
	defer rd.Close()
	mustExec(t, rd, "BEGIN")
	mustExec(t, rd, "SELECT COUNT(*) FROM m")
	mustExec(t, s, "UPDATE m SET k = 20 WHERE id = 2")
	mustExec(t, s, "UPDATE m SET k = 10 WHERE id = 2")
	e.GC() // the reader holds every version
	wantBucket(t, "before the purge", tbl, "m_k", sqlval.Int(10), r1, r2, r3)
	wantBucket(t, "before the purge", tbl, "m_k", sqlval.Int(20), r2)
	checkSharedBuckets(t, tbl)
	if res := mustExec(t, rd, "SELECT id FROM m WHERE k = 10"); len(res.Rows) != 3 {
		t.Errorf("pinned reader under A: %v, want 3 rows", res.Rows)
	}
	mustExec(t, rd, "COMMIT")

	e.GC()
	wantBucket(t, "after the purge", tbl, "m_k", sqlval.Int(10), r1, r2, r3)
	wantBucket(t, "after the purge", tbl, "m_k", sqlval.Int(20))
	if keys, nodes := indexShape(tbl.indexes["m_k"]); keys != 1 || nodes != 1 {
		t.Errorf("after the purge: m_k has %d keys on %d nodes, want 1 on 1", keys, nodes)
	}
	checkSharedBuckets(t, tbl)
	runBothPlans(t, e, s, "SELECT id, k FROM m WHERE k BETWEEN 5 AND 25")
}

// TestIndexRefsUniqueReuse: a UNIQUE index — single-column and ordered, or
// multi-column and hash-only — refuses a live duplicate and accepts a key
// a committed UPDATE vacated, both while a pinned reader still holds the
// vacating row's old ref and after the purge has dropped it.
func TestIndexRefsUniqueReuse(t *testing.T) {
	e := New("unique")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, code VARCHAR, a INTEGER, b INTEGER)")
	mustExec(t, s, "CREATE UNIQUE INDEX u_code ON u (code)")
	mustExec(t, s, "CREATE UNIQUE INDEX u_ab ON u (a, b)")
	mustExec(t, s, "INSERT INTO u (id, code, a, b) VALUES (1, 'x', 1, 1), (2, 'y', 2, 2)")
	tbl := e.tables["u"]
	r1, r2 := rowidOf(t, tbl, 1), rowidOf(t, tbl, 2)
	refuse := func(step, sql string) {
		t.Helper()
		if _, err := s.ExecSQL(sql); err == nil {
			t.Errorf("%s: %q succeeded, want a duplicate-key error", step, sql)
		}
	}
	ab := func(step string, a, b int64, want ...int64) {
		t.Helper()
		if got := bucketIDs(tbl, "u_ab", sqlval.Int(a), sqlval.Int(b)); !slices.Equal(got, want) {
			t.Errorf("%s: u_ab[%d,%d] holds rowids %v, want %v", step, a, b, got, want)
		}
	}
	refuse("live", "INSERT INTO u (id, code, a, b) VALUES (3, 'x', 3, 3)")
	refuse("live", "INSERT INTO u (id, code, a, b) VALUES (3, 'z', 1, 1)")

	rd := e.NewSession()
	defer rd.Close()
	mustExec(t, rd, "BEGIN")
	mustExec(t, rd, "SELECT COUNT(*) FROM u")
	mustExec(t, s, "UPDATE u SET code = 'w', a = 9 WHERE id = 1") // vacates 'x' and (1, 1)
	e.GC()
	wantBucket(t, "vacated, before the purge", tbl, "u_code", sqlval.String_("x"), r1)
	ab("vacated, before the purge", 1, 1, r1)
	mustExec(t, s, "INSERT INTO u (id, code, a, b) VALUES (3, 'x', 1, 1)")
	r3 := rowidOf(t, tbl, 3)
	wantBucket(t, "reused, before the purge", tbl, "u_code", sqlval.String_("x"), r1, r3)
	ab("reused, before the purge", 1, 1, r1, r3)
	refuse("before the purge", "INSERT INTO u (id, code, a, b) VALUES (4, 'w', 5, 5)")
	refuse("before the purge", "INSERT INTO u (id, code, a, b) VALUES (4, 'x', 5, 5)")
	refuse("before the purge", "INSERT INTO u (id, code, a, b) VALUES (4, 'q', 9, 1)")
	if res := mustExec(t, rd, "SELECT id FROM u WHERE code = 'x'"); len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Errorf("pinned reader under 'x': %v, want row 1 alone", res.Rows)
	}
	mustExec(t, rd, "COMMIT")

	e.GC()
	wantBucket(t, "after the purge", tbl, "u_code", sqlval.String_("x"), r3)
	wantBucket(t, "after the purge", tbl, "u_code", sqlval.String_("w"), r1)
	ab("after the purge", 1, 1, r3)
	checkSharedBuckets(t, tbl)

	mustExec(t, s, "UPDATE u SET code = 'v', a = 8 WHERE id = 2") // vacates 'y' and (2, 2)
	e.GC()
	wantBucket(t, "vacated, after the purge", tbl, "u_code", sqlval.String_("y"))
	ab("vacated, after the purge", 2, 2)
	mustExec(t, s, "INSERT INTO u (id, code, a, b) VALUES (5, 'y', 2, 2)")
	r5 := rowidOf(t, tbl, 5)
	wantBucket(t, "reused, after the purge", tbl, "u_code", sqlval.String_("y"), r5)
	wantBucket(t, "reused, after the purge", tbl, "u_code", sqlval.String_("v"), r2)
	ab("reused, after the purge", 2, 2, r5)
	refuse("after the purge", "INSERT INTO u (id, code, a, b) VALUES (6, 'v', 0, 0)")
	refuse("after the purge", "INSERT INTO u (id, code, a, b) VALUES (6, 'p', 8, 2)")
	for _, name := range []string{"u_code", "u_ab", "__pk"} {
		ix := tbl.indexes[name]
		if keys := len(ix.ints) + len(ix.m); keys != 4 {
			t.Errorf("%s: %d keys for 4 rows", name, keys)
		}
	}
	checkSharedBuckets(t, tbl)
}

// TestIndexRefsDeleteUnlinksAtPurge deletes every row of one key — a tenth
// of the table, below the compaction threshold — with a purge step after
// the statement: the key's node and hash entry go at that purge, while the
// scan order still carries the retired chains.
func TestIndexRefsDeleteUnlinksAtPurge(t *testing.T) {
	e := New("delpurge")
	e.gcEvery = 1
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE INDEX d_k ON d (k)")
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO d (id, k) VALUES (%d, %d)", i, i%10))
	}
	tbl := e.tables["d"]
	slab := tbl.order.Load()
	mustExec(t, s, "DELETE FROM d WHERE k = 3")
	if tbl.order.Load() != slab || tbl.dead != 10 {
		t.Fatalf("the delete compacted the scan order (dead = %d), want 10 retired chains left in it", tbl.dead)
	}
	wantBucket(t, "purged delete", tbl, "d_k", sqlval.Int(3))
	for i := int64(3); i < 100; i += 10 {
		wantBucket(t, "purged delete", tbl, "__pk", sqlval.Int(i))
	}
	for name, want := range map[string]int{"d_k": 9, "__pk": 90} {
		if keys, nodes := indexShape(tbl.indexes[name]); keys != want || nodes != want {
			t.Errorf("%s after the purge: %d keys on %d nodes, want %d on %d", name, keys, nodes, want, want)
		}
	}
	checkSharedBuckets(t, tbl)
	runBothPlans(t, e, s, "SELECT id, k FROM d WHERE k BETWEEN 2 AND 4 ORDER BY k DESC LIMIT 15")
	runBothPlans(t, e, s, "SELECT id FROM d WHERE id >= 80 ORDER BY id DESC")
}

// TestIndexRefsSharedKeyDrain empties one key held by thousands of rows in
// a single purge, three ways: a DELETE of the key's rows, an UPDATE moving
// them all to another key, and a rolled-back INSERT of them. Each drain
// rebuilds the shared bucket once, so the purge (or the rollback) allocates
// about one list, not one list per ref it drops — which would be
// 4·rows² bytes, 64 MB here.
func TestIndexRefsSharedKeyDrain(t *testing.T) {
	const rows = 4000
	const budget = 2 << 20 // bytes a drain may allocate
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	setup := func(name string) (*Engine, *Session, *table) {
		e := New(name)
		e.gcEvery = 1 << 20 // steps run only when called
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER)")
		mustExec(t, s, "CREATE INDEX d_k ON d (k)")
		mustExec(t, s, "INSERT INTO d (id, k) VALUES (-1, 0)")
		return e, s, e.tables["d"]
	}
	insertAll := func(s *Session) {
		var b strings.Builder
		b.WriteString("INSERT INTO d (id, k) VALUES ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, 1)", i)
		}
		mustExec(t, s, b.String())
	}
	check := func(step string, tbl *table, wantK1, wantK2, wantPK int) {
		t.Helper()
		if got := len(bucketIDs(tbl, "d_k", sqlval.Int(1))); got != wantK1 {
			t.Errorf("%s: d_k[1] holds %d refs, want %d", step, got, wantK1)
		}
		if got := len(bucketIDs(tbl, "d_k", sqlval.Int(2))); got != wantK2 {
			t.Errorf("%s: d_k[2] holds %d refs, want %d", step, got, wantK2)
		}
		wantKeys := 1
		for _, n := range []int{wantK1, wantK2} {
			if n > 0 {
				wantKeys++
			}
		}
		if keys, nodes := indexShape(tbl.indexes["d_k"]); keys != wantKeys || nodes != wantKeys {
			t.Errorf("%s: d_k has %d keys on %d nodes, want %d on %d", step, keys, nodes, wantKeys, wantKeys)
		}
		if keys, nodes := indexShape(tbl.indexes["__pk"]); keys != wantPK || nodes != wantPK {
			t.Errorf("%s: __pk has %d keys on %d nodes, want %d on %d", step, keys, nodes, wantPK, wantPK)
		}
		checkSharedBuckets(t, tbl)
	}

	t.Run("delete", func(t *testing.T) {
		e, s, tbl := setup("drain-delete")
		insertAll(s)
		mustExec(t, s, "DELETE FROM d WHERE k = 1")
		check("deleted", tbl, rows, 0, rows+1)
		if b := measure(e.GC); b > budget {
			t.Errorf("the purge of %d deletes under one key allocated %d bytes, want at most %d", rows, b, budget)
		}
		check("purged", tbl, 0, 0, 1)
		runBothPlans(t, e, s, "SELECT id, k FROM d WHERE k <= 1 ORDER BY k DESC LIMIT 5")
	})
	t.Run("move", func(t *testing.T) {
		e, s, tbl := setup("drain-move")
		insertAll(s)
		mustExec(t, s, "UPDATE d SET k = 2 WHERE k = 1")
		check("moved", tbl, rows, rows, rows+1)
		if b := measure(e.GC); b > budget {
			t.Errorf("the purge of %d key moves off one key allocated %d bytes, want at most %d", rows, b, budget)
		}
		check("purged", tbl, 0, rows, rows+1)
		runBothPlans(t, e, s, "SELECT id, k FROM d WHERE k BETWEEN 1 AND 2 ORDER BY k DESC LIMIT 5")
	})
	t.Run("rollback", func(t *testing.T) {
		e, s, tbl := setup("drain-rollback")
		mustExec(t, s, "BEGIN")
		insertAll(s)
		check("inserted", tbl, rows, 0, rows+1)
		if b := measure(func() { mustExec(t, s, "ROLLBACK") }); b > budget {
			t.Errorf("the rollback of %d inserts under one key allocated %d bytes, want at most %d", rows, b, budget)
		}
		check("rolled back", tbl, 0, 0, 1)
		e.GC()
		check("after GC", tbl, 0, 0, 1)
		runBothPlans(t, e, s, "SELECT id, k FROM d WHERE k <= 1 ORDER BY k DESC LIMIT 5")
	})
}

// TestIndexRefsPinnedDrain holds a reader pinned across 10 000 key moves of
// one row, then drains them all in one GC. Each cut key is checked against
// the versions the row keeps after the whole drain — one — not against the
// versions still above it when its entry is drained, which would make the
// drain quadratic in the moves. The drain must take less time than the
// UPDATE statements that made the garbage; the quadratic one took some
// thirty times longer.
func TestIndexRefsPinnedDrain(t *testing.T) {
	const moves = 10000
	e := New("pinned-drain")
	e.gcEvery = 1 << 30 // steps run only when called
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE m (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE INDEX m_k ON m (k)")
	mustExec(t, s, "INSERT INTO m (id, k) VALUES (1, 0)")
	r := e.NewSession()
	mustExec(t, r, "BEGIN")
	mustExec(t, r, "SELECT k FROM m WHERE id = 1")
	start := time.Now()
	for i := 1; i <= moves; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE m SET k = %d WHERE id = 1", i))
	}
	updates := time.Since(start)
	if res := mustExec(t, r, "SELECT k FROM m WHERE k = 0"); len(res.Rows) != 1 {
		t.Fatalf("the pinned reader sees %d rows under k = 0, want its snapshot's one", len(res.Rows))
	}
	tbl := e.tables["m"]
	if keys, nodes := indexShape(tbl.indexes["m_k"]); keys != moves+1 || nodes != moves+1 {
		t.Fatalf("pinned: m_k has %d keys on %d nodes, want %d on %d", keys, nodes, moves+1, moves+1)
	}
	mustExec(t, r, "COMMIT")
	start = time.Now()
	e.GC()
	if drain := time.Since(start); drain > updates {
		t.Errorf("the drain of %d key moves took %v, longer than the %v their UPDATEs took", moves, drain, updates)
	}
	wantBucket(t, "drained", tbl, "m_k", sqlval.Int(moves), rowidOf(t, tbl, 1))
	if keys, nodes := indexShape(tbl.indexes["m_k"]); keys != 1 || nodes != 1 {
		t.Errorf("drained: m_k has %d keys on %d nodes, want 1 on 1", keys, nodes)
	}
	checkSharedBuckets(t, tbl)
}

// TestTruncateChainDropsRefs cuts a key-moved row's chain with GC's
// truncateChain alone, the purge list left undrained: the cuts queue, and
// dropRefs drops, the refs of the keys only the cut versions held. The GC
// that follows then drains the list, whose entries name versions already
// off the chain, and changes nothing.
func TestTruncateChainDropsRefs(t *testing.T) {
	e := New("truncate")
	e.gcEvery = 1 << 20 // steps run only when called
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE m (id INTEGER PRIMARY KEY, k INTEGER)")
	mustExec(t, s, "CREATE INDEX m_k ON m (k)")
	mustExec(t, s, "INSERT INTO m (id, k) VALUES (0, 0), (1000, 5)")
	for i := 1; i <= 50; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE m SET k = %d, id = %d WHERE id = %d", i*10, i, i-1))
	}
	tbl := e.tables["m"]
	check := func(step string) {
		t.Helper()
		for _, name := range []string{"m_k", "__pk"} {
			if keys, nodes := indexShape(tbl.indexes[name]); keys != 2 || nodes != 2 {
				t.Errorf("%s: %s has %d keys on %d nodes, want 2 on 2", step, name, keys, nodes)
			}
		}
		wantBucket(t, step, tbl, "m_k", sqlval.Int(500), rowidOf(t, tbl, 50))
		wantBucket(t, step, tbl, "__pk", sqlval.Int(50), rowidOf(t, tbl, 50))
		checkSharedBuckets(t, tbl)
	}
	tbl.store.Lock()
	w := e.watermark()
	for _, ch := range tbl.rows {
		tbl.truncateChain(ch, w)
	}
	tbl.dropRefs()
	tbl.store.Unlock()
	if len(tbl.purge) != 50 {
		t.Fatalf("purge list holds %d entries, want the 50 updates undrained", len(tbl.purge))
	}
	check("truncated")
	e.GC()
	check("purged")
	runBothPlans(t, e, s, "SELECT id, k FROM m WHERE k < 300 ORDER BY k DESC LIMIT 5")
}
