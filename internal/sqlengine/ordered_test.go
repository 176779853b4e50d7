package sqlengine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/sqlval"
)

// --- skiplist structure tests (standalone index, minimal table) ------------

// skipTestTable builds the minimal table an ordIndex needs: idxMu for ref
// copies and a rows map for gcLocked's liveness check.
func skipTestTable() *table {
	return &table{rows: make(map[int64]*rowChain)}
}

func skipKeys(ox *ordIndex, t *table, lo, hi *rangeBound, desc bool) []sqlval.Value {
	var keys []sqlval.Value
	ox.scan(t, lo, hi, desc, func(k sqlval.Value, _ []*rowChain) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// TestSkiplistOrderAndBounds inserts shuffled keys (including NULL) and
// checks collation order, NULL-first placement, DESC reversal and
// inclusive/exclusive bound handling.
func TestSkiplistOrderAndBounds(t *testing.T) {
	ox := newOrdIndex()
	tbl := skipTestTable()
	rng := rand.New(rand.NewSource(7))
	vals := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	id := int64(0)
	for _, v := range vals {
		ch := &rowChain{id: id}
		tbl.rows[id] = ch
		ox.insert(tbl, sqlval.Int(v), ch)
		id++
	}
	chNull := &rowChain{id: id}
	tbl.rows[id] = chNull
	ox.insert(tbl, sqlval.Null, chNull)

	asc := skipKeys(ox, tbl, nil, nil, false)
	if len(asc) != 11 || !asc[0].IsNull() {
		t.Fatalf("asc scan: %d keys, first %v (want 11 keys, NULL first)", len(asc), asc[0])
	}
	for i := 1; i < len(asc); i++ {
		if sqlval.Compare(asc[i-1], asc[i]) >= 0 {
			t.Fatalf("asc keys out of order at %d: %v >= %v", i, asc[i-1], asc[i])
		}
	}
	desc := skipKeys(ox, tbl, nil, nil, true)
	if len(desc) != len(asc) {
		t.Fatalf("desc scan: %d keys, want %d", len(desc), len(asc))
	}
	for i := range desc {
		if sqlval.Compare(desc[i], asc[len(asc)-1-i]) != 0 {
			t.Fatalf("desc scan is not the reverse of asc at %d: %v vs %v", i, desc[i], asc[len(asc)-1-i])
		}
	}

	// Bounds: (3, 7] ascending must be 4..7; [3, 7) descending must be 6..3.
	lo := &rangeBound{v: sqlval.Int(3)}
	hi := &rangeBound{v: sqlval.Int(7), incl: true}
	got := skipKeys(ox, tbl, lo, hi, false)
	want := []int64{4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("(3,7] scan: %v", got)
	}
	for i, k := range got {
		if k.I != want[i] {
			t.Fatalf("(3,7] scan: %v", got)
		}
	}
	got = skipKeys(ox, tbl, &rangeBound{v: sqlval.Int(3), incl: true}, &rangeBound{v: sqlval.Int(7)}, true)
	want = []int64{6, 5, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("[3,7) desc scan: %v", got)
	}
	for i, k := range got {
		if k.I != want[i] {
			t.Fatalf("[3,7) desc scan: %v", got)
		}
	}
	// A NULL-excluding lower bound skips the NULL node (SQL comparisons
	// reject NULL rows, so bounded scans must agree).
	got = skipKeys(ox, tbl, &rangeBound{v: sqlval.Int(0), incl: true}, nil, false)
	if len(got) != 10 || got[0].IsNull() {
		t.Fatalf(">=0 scan must exclude NULL: %v", got)
	}

	// collectRange abort: more refs than the limit returns ok=false.
	if _, ok := ox.collectRange(tbl, nil, nil, 3); ok {
		t.Fatal("collectRange over limit must abort")
	}
	if refs, ok := ox.collectRange(tbl, lo, hi, -1); !ok || len(refs) != 4 {
		t.Fatalf("collectRange (3,7] = %d refs, ok=%v", len(refs), ok)
	}
}

// TestSkiplistDuplicateAndRepeatedInsert checks the two ref-dedup rules:
// same id under the same key is dropped, different ids under one key
// accumulate and come back rowid-sorted.
func TestSkiplistDuplicateAndRepeatedInsert(t *testing.T) {
	ox := newOrdIndex()
	tbl := skipTestTable()
	ch := func(id int64) *rowChain {
		c := &rowChain{id: id}
		tbl.rows[id] = c
		return c
	}
	ox.insert(tbl, sqlval.Int(1), ch(30))
	ox.insert(tbl, sqlval.Int(1), ch(10))
	ox.insert(tbl, sqlval.Int(1), ch(20))
	ox.insert(tbl, sqlval.Int(1), tbl.rows[10]) // update back to same key: no dup
	var refs []*rowChain
	ox.scan(tbl, nil, nil, false, func(_ sqlval.Value, rs []*rowChain) bool {
		refs = rs
		return true
	})
	if len(refs) != 3 || refs[0].id != 10 || refs[1].id != 20 || refs[2].id != 30 {
		t.Fatalf("refs = %+v, want ids 10,20,30", refs)
	}
}

// TestSkiplistGCUnlinksEmptyNodes deletes every row of some keys and runs
// the index sweep: refs to reclaimed chains disappear, emptied nodes
// unlink, their keys leave the hash map that shares their ref lists, and
// the prev chain and tail are rewired over the survivors.
func TestSkiplistGCUnlinksEmptyNodes(t *testing.T) {
	ix := &index{columns: []int{0}, ord: newOrdIndex()}
	ox := ix.ord
	tbl := skipTestTable()
	for i := int64(0); i < 20; i++ {
		c := &rowChain{id: i}
		tbl.rows[i] = c
		row := []sqlval.Value{sqlval.Int(i % 5)} // keys 0..4, 4 rows each
		ix.addRef(tbl, valueKey(nil, row[0]), row, c)
	}
	// Reclaim every row of keys 1 and 3, and one row of key 2.
	for i := int64(0); i < 20; i++ {
		if k := i % 5; k == 1 || k == 3 || (k == 2 && i == 2) {
			delete(tbl.rows, i)
		}
	}
	ox.gcLocked(tbl, ix)
	for k := int64(0); k < 5; k++ {
		bkt := ix.get(valueKey(nil, sqlval.Int(k)))
		if ok, want := bkt != nil, k%2 == 0; ok != want {
			t.Errorf("key %d in the hash map after GC: %v, want %v", k, ok, want)
		} else if ok && bkt != &ox.seekGE(&rangeBound{v: sqlval.Int(k), incl: true}).idBucket {
			t.Errorf("key %d: the hash map's bucket is not the node's", k)
		}
	}

	asc := skipKeys(ox, tbl, nil, nil, false)
	if len(asc) != 3 || asc[0].I != 0 || asc[1].I != 2 || asc[2].I != 4 {
		t.Fatalf("surviving keys = %v, want 0,2,4", asc)
	}
	desc := skipKeys(ox, tbl, nil, nil, true)
	if len(desc) != 3 || desc[0].I != 4 || desc[2].I != 0 {
		t.Fatalf("desc keys after GC = %v, want 4,2,0", desc)
	}
	if tail := ox.tail.Load(); tail == nil || tail.key.I != 4 {
		t.Fatalf("tail after GC = %v", tail)
	}
	total := 0
	ox.scan(tbl, nil, nil, false, func(_ sqlval.Value, rs []*rowChain) bool {
		total += len(rs)
		return true
	})
	if total != 11 { // 4 + 3 + 4 surviving refs
		t.Fatalf("surviving refs = %d, want 11", total)
	}
}

// TestSkiplistLevelDeterminism: two indexes fed the same insertion sequence
// draw identical towers (replicas applying one write stream must build
// byte-identical structures).
func TestSkiplistLevelDeterminism(t *testing.T) {
	a, b := newOrdIndex(), newOrdIndex()
	for i := 0; i < 200; i++ {
		la, lb := a.randLevel(), b.randLevel()
		if la != lb {
			t.Fatalf("draw %d: %d vs %d", i, la, lb)
		}
		if la < 1 || la > maxSkipLevel {
			t.Fatalf("draw %d out of range: %d", i, la)
		}
	}
}

// --- planner/executor property tests (SQL level) ---------------------------

// TestOrderedRangeMatchesFullScanRandom is the randomized oracle for the
// ordered-index read paths: random range predicates (open/closed/BETWEEN,
// NULL boundaries), ORDER BY ASC/DESC with LIMIT and OFFSET, and mixed
// hash+range conjuncts must return byte-identical rows (order included)
// with planning on and off, across inserts, key updates and deletes.
func TestOrderedRangeMatchesFullScanRandom(t *testing.T) {
	e := New("ordprop")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, g INTEGER, s VARCHAR)")
	mustExec(t, s, "CREATE INDEX r_k ON r (k)")
	mustExec(t, s, "CREATE INDEX r_s ON r (s)")
	rng := rand.New(rand.NewSource(1234))
	n := 0
	mutate := func() {
		switch rng.Intn(6) {
		case 0, 1, 2:
			k := fmt.Sprintf("%d", rng.Intn(30)-5)
			if rng.Intn(10) == 0 {
				k = "NULL"
			}
			mustExec(t, s, fmt.Sprintf("INSERT INTO r (id, k, g, s) VALUES (%d, %s, %d, 's%02d')",
				n, k, rng.Intn(8), rng.Intn(20)))
			n++
		case 3:
			mustExec(t, s, fmt.Sprintf("UPDATE r SET k = %d WHERE id = %d", rng.Intn(30)-5, rng.Intn(n+1)))
		case 4:
			mustExec(t, s, fmt.Sprintf("UPDATE r SET g = g + 1 WHERE k >= %d AND k < %d", rng.Intn(20), rng.Intn(20)+5))
		case 5:
			mustExec(t, s, fmt.Sprintf("DELETE FROM r WHERE id = %d", rng.Intn(n+1)))
		}
	}
	ops := []string{"<", "<=", ">", ">=", "="}
	randQuery := func() string {
		a, b := rng.Intn(30)-5, rng.Intn(30)-5
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprintf("SELECT id, k FROM r WHERE k %s %d", ops[rng.Intn(len(ops))], a)
		case 1:
			return fmt.Sprintf("SELECT id, k, g FROM r WHERE k > %d AND k <= %d", a, b)
		case 2:
			return fmt.Sprintf("SELECT id, k FROM r WHERE k BETWEEN %d AND %d AND g < %d", a, b, rng.Intn(8))
		case 3:
			return fmt.Sprintf("SELECT id, k, s FROM r ORDER BY k LIMIT %d", 1+rng.Intn(12))
		case 4:
			return fmt.Sprintf("SELECT id, k, s FROM r ORDER BY k DESC LIMIT %d OFFSET %d", 1+rng.Intn(12), rng.Intn(5))
		case 5:
			return fmt.Sprintf("SELECT id, k FROM r WHERE k >= %d ORDER BY k LIMIT %d", a, 1+rng.Intn(8))
		case 6:
			return fmt.Sprintf("SELECT id, s FROM r WHERE s >= 's%02d' AND s < 's%02d' ORDER BY s LIMIT %d", rng.Intn(20), rng.Intn(20), 1+rng.Intn(6))
		default:
			return fmt.Sprintf("SELECT id, k FROM r WHERE g = %d AND k BETWEEN %d AND %d ORDER BY k", rng.Intn(8), a, b)
		}
	}
	for round := 0; round < 60; round++ {
		for i := 0; i < 8; i++ {
			mutate()
		}
		for i := 0; i < 6; i++ {
			runBothPlans(t, e, s, randQuery())
		}
	}
}

// TestOrderedTopKUnderConcurrentWriters runs the planned==full-scan oracle
// while writer goroutines churn the indexed key. Each comparison executes
// inside one reader transaction, so both plans resolve against the same
// pinned epoch and must agree byte-for-byte no matter what commits around
// them. Run under -race this also exercises the latch-free skiplist reads
// against concurrent inserts and the background of index GC.
func TestOrderedTopKUnderConcurrentWriters(t *testing.T) {
	e := New("ordrace", WithGCThreshold(64))
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE hot (id INTEGER PRIMARY KEY, k INTEGER, pad VARCHAR)")
	mustExec(t, s, "CREATE INDEX hot_k ON hot (k)")
	for i := 0; i < 300; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO hot (id, k, pad) VALUES (%d, %d, 'p')", i, i%50))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ws := e.NewSession()
			defer ws.Close()
			wr := rand.New(rand.NewSource(seed))
			next := 1000 + seed*100000
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch wr.Intn(4) {
				case 0:
					_, err = ws.ExecSQL(fmt.Sprintf("INSERT INTO hot (id, k, pad) VALUES (%d, %d, 'w')", next, wr.Intn(50)))
					next++
				case 1, 2:
					_, err = ws.ExecSQL(fmt.Sprintf("UPDATE hot SET k = %d WHERE id = %d", wr.Intn(50), wr.Int63n(300)))
				case 3:
					_, err = ws.ExecSQL(fmt.Sprintf("DELETE FROM hot WHERE id = %d", 1000+wr.Int63n(next-999)))
				}
				if err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(int64(w) + 1)
	}

	queries := []string{
		"SELECT id, k FROM hot ORDER BY k LIMIT 10",
		"SELECT id, k FROM hot ORDER BY k DESC LIMIT 10",
		"SELECT id, k FROM hot WHERE k BETWEEN 10 AND 20",
		"SELECT id, k FROM hot WHERE k >= 40 ORDER BY k LIMIT 5",
		"SELECT COUNT(*) FROM hot WHERE k < 25",
	}
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		mustExec(t, s, "BEGIN")
		runBothPlans(t, e, s, queries[i%len(queries)])
		mustExec(t, s, "COMMIT")
	}
	close(stop)
	wg.Wait()
}

// TestUpdateDeleteCandidateSets drives twin engines — one planning through
// the indexes, one forced to full scans — with the identical seeded
// statement stream of range-predicated UPDATEs and DELETEs, asserting every
// statement touches the same number of rows and both end in the same state.
// This is the oracle for candidateRefs on the write paths.
func TestUpdateDeleteCandidateSets(t *testing.T) {
	ep := New("candA")
	ef := New("candB")
	ef.noIndexPlan.Store(true)
	sp, sf := ep.NewSession(), ef.NewSession()
	for _, s := range []*Session{sp, sf} {
		mustExec(t, s, "CREATE TABLE c (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)")
		mustExec(t, s, "CREATE INDEX c_k ON c (k)")
	}
	rng := rand.New(rand.NewSource(88))
	n := 0
	for i := 0; i < 500; i++ {
		var sql string
		switch rng.Intn(6) {
		case 0, 1:
			sql = fmt.Sprintf("INSERT INTO c (id, k, v) VALUES (%d, %d, %d)", n, rng.Intn(40), rng.Intn(100))
			n++
		case 2:
			sql = fmt.Sprintf("UPDATE c SET v = v + 1 WHERE k BETWEEN %d AND %d", rng.Intn(40), rng.Intn(40))
		case 3:
			sql = fmt.Sprintf("UPDATE c SET k = %d WHERE k > %d AND v < %d", rng.Intn(40), rng.Intn(40), rng.Intn(100))
		case 4:
			sql = fmt.Sprintf("DELETE FROM c WHERE k >= %d AND k < %d AND v > %d", rng.Intn(40), rng.Intn(40), rng.Intn(100))
		case 5:
			sql = fmt.Sprintf("DELETE FROM c WHERE k = %d AND v <= %d", rng.Intn(40), rng.Intn(100))
		}
		rp, err := sp.ExecSQL(sql)
		if err != nil {
			t.Fatalf("planned %q: %v", sql, err)
		}
		rf, err := sf.ExecSQL(sql)
		if err != nil {
			t.Fatalf("fullscan %q: %v", sql, err)
		}
		if rp.RowsAffected != rf.RowsAffected {
			t.Fatalf("%q: planned affected %d, full scan %d", sql, rp.RowsAffected, rf.RowsAffected)
		}
	}
	finalP := mustExec(t, sp, "SELECT id, k, v FROM c ORDER BY id")
	finalF := mustExec(t, sf, "SELECT id, k, v FROM c ORDER BY id")
	if len(finalP.Rows) != len(finalF.Rows) {
		t.Fatalf("final state: %d vs %d rows", len(finalP.Rows), len(finalF.Rows))
	}
	for i := range finalP.Rows {
		if rowKey(finalP.Rows[i]) != rowKey(finalF.Rows[i]) {
			t.Fatalf("final row %d: %v vs %v", i, finalP.Rows[i], finalF.Rows[i])
		}
	}
}

// TestPlannedAccessLeavesIndexRefsInPlace: readers and planned writers get
// an index bucket's or skiplist node's own ref slice, not a copy, so nothing
// on the read or write path may reorder it. Row 2 and row 0 move to key 3
// after rows 6 and 7 were inserted there, which leaves both ref lists out
// of rowid order; a point-probed UPDATE, SELECT and DELETE and an ordered
// scan must leave them byte-for-byte as they were, and still meet the rows
// in rowid order.
func TestPlannedAccessLeavesIndexRefsInPlace(t *testing.T) {
	e := New("refs")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, cat INTEGER, val INTEGER)")
	mustExec(t, s, "CREATE INDEX p_cat ON p (cat)")
	for i := 0; i < 8; i++ {
		cat := i % 2
		if i >= 6 {
			cat = 3
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO p (id, cat, val) VALUES (%d, %d, 0)", i, cat))
	}
	mustExec(t, s, "UPDATE p SET cat = 3 WHERE id = 2")
	mustExec(t, s, "UPDATE p SET cat = 3 WHERE id = 0")

	ix := e.tables["p"].indexes["p_cat"]
	key := sqlval.Int(3)
	refsNow := func() (bucket, node []*rowChain) {
		bucket = slices.Clone(ix.get(valueKey(nil, key)).refs)
		node = slices.Clone(ix.ord.seekGE(&rangeBound{v: key, incl: true}).refs)
		return bucket, node
	}
	ids := func(refs []*rowChain) []int64 {
		out := make([]int64, len(refs))
		for i, r := range refs {
			out[i] = r.id
		}
		return out
	}
	bucket, node := refsNow()
	if want := []int64{6, 7, 2, 0}; !slices.Equal(ids(bucket), want) || !slices.Equal(ids(node), want) {
		t.Fatalf("setup: bucket ids %v, node ids %v, want both %v", ids(bucket), ids(node), want)
	}

	var got []int64
	for _, r := range mustExec(t, s, "SELECT id FROM p WHERE cat = 3").Rows {
		got = append(got, r[0].I)
	}
	if !slices.Equal(got, []int64{0, 2, 6, 7}) {
		t.Errorf("point probe returned ids %v, want [0 2 6 7] in rowid order", got)
	}
	mustExec(t, s, "SELECT id FROM p WHERE cat >= 3 ORDER BY cat LIMIT 3")
	if res := mustExec(t, s, "UPDATE p SET val = val + 1 WHERE cat = 3"); res.RowsAffected != 4 {
		t.Errorf("UPDATE affected %d rows, want 4", res.RowsAffected)
	}
	if res := mustExec(t, s, "DELETE FROM p WHERE cat = 3 AND val = 1"); res.RowsAffected != 4 {
		t.Errorf("DELETE affected %d rows, want 4", res.RowsAffected)
	}
	b2, n2 := refsNow()
	if !slices.Equal(bucket, b2) || !slices.Equal(node, n2) {
		t.Fatalf("index refs changed: bucket %v -> %v, node %v -> %v", ids(bucket), ids(b2), ids(node), ids(n2))
	}
}

// TestOrderByEqualityElision covers the satellite fix: an ORDER BY key
// pinned by an equality conjunct is trivially satisfied, with or without a
// surviving second key, and must not disturb results.
func TestOrderByEqualityElision(t *testing.T) {
	e := New("eqelide")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE o (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	mustExec(t, s, "CREATE INDEX o_a ON o (a)")
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO o (id, a, b) VALUES (%d, %d, %d)", i, i%4, i%7))
	}
	for _, q := range []string{
		"SELECT id, a, b FROM o WHERE a = 2 ORDER BY a",
		"SELECT id, a, b FROM o WHERE a = 2 ORDER BY a LIMIT 5",
		"SELECT id, a, b FROM o WHERE a = 2 ORDER BY a, b",
		"SELECT id, a FROM o WHERE a = 1 AND b = 3 ORDER BY a, b LIMIT 4",
		"SELECT id, a, b FROM o WHERE a = 2 ORDER BY b DESC",
	} {
		runBothPlans(t, e, s, q)
	}
	// Sanity: the second query really is a = 2 only, ordered correctly.
	res := mustExec(t, s, "SELECT id, a FROM o WHERE a = 2 ORDER BY a LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].I != 2 {
			t.Fatalf("row %v not a=2", r)
		}
	}
}

// TestDebtGCReclaimsUnaided proves a default engine's debt-driven step
// catches up by itself: churning updates past the debt threshold on one
// never-closed session drains chains (and their ordered-index refs) back
// toward one live version per row with nothing else asking for a sweep.
func TestDebtGCReclaimsUnaided(t *testing.T) {
	e := New("debtgc")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE g (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "CREATE INDEX g_v ON g (v)")
	const rows = 16
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO g (id, v) VALUES (%d, 0)", i))
	}
	// Two thresholds' worth of updates: versions must first pile up, then a
	// round must end with at most the current + one stale version per row.
	piled := false
	var vs VersionStats
	for round := 1; round <= 2*int(e.gcEvery)/rows; round++ {
		for i := 0; i < rows; i++ {
			mustExec(t, s, fmt.Sprintf("UPDATE g SET v = %d WHERE id = %d", round, i))
		}
		vs = e.VersionStatsSnapshot()
		if vs.Versions > 2*rows {
			piled = true
		} else if piled && vs.Chains == rows {
			return
		}
	}
	t.Fatalf("debt-driven GC never caught up (versions piled up: %v): %+v", piled, vs)
}
