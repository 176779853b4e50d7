package sqlengine

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// runBothPlans executes the query twice against the same snapshot — once
// index-planned (hash probes, ordered-range scans, ORDER BY elision) and
// once with planning forced off (full scan plus in-memory sort) — and
// asserts byte-identical results, order included. This is the snapshot-vs-
// snapshot oracle that replaced the retired latched-read mode: both
// executions resolve rows through the same MVCC read view, so any
// divergence is a planner or ordered-index bug, not a visibility race.
func runBothPlans(t *testing.T, e *Engine, s *Session, query string) {
	t.Helper()
	planned, err := s.ExecSQL(query)
	if err != nil {
		t.Fatalf("%q (planned): %v", query, err)
	}
	e.noIndexPlan.Store(true)
	scanned, err := s.ExecSQL(query)
	e.noIndexPlan.Store(false)
	if err != nil {
		t.Fatalf("%q (full scan): %v", query, err)
	}
	if len(planned.Rows) != len(scanned.Rows) {
		t.Fatalf("%q: planned %d rows, full scan %d rows", query, len(planned.Rows), len(scanned.Rows))
	}
	for i := range planned.Rows {
		if rowKey(planned.Rows[i]) != rowKey(scanned.Rows[i]) {
			t.Fatalf("%q row %d: planned %v, full scan %v", query, i, planned.Rows[i], scanned.Rows[i])
		}
	}
}

// TestSnapshotPlannedEqualsFullScan is the property test backing the
// ordered-index work (and the successor of the retired snapshot==latched
// oracle): at any quiescent point — and, for the writing session itself, at
// any point inside its own transaction — every planned execution returns
// exactly what a forced full scan returns, across point lookups, IN plans,
// range predicates, BETWEEN, ORDER BY [DESC] ... LIMIT/OFFSET top-k scans,
// NULL sort boundaries, joins and aggregates. A seeded random workload of
// inserts (including NULL keys), updates, deletes and rollbacks drives the
// comparison.
func TestSnapshotPlannedEqualsFullScan(t *testing.T) {
	e := New("prop")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, cat INTEGER, val INTEGER)")
	mustExec(t, s, "CREATE TABLE q (id INTEGER PRIMARY KEY, pid INTEGER, w INTEGER, tag VARCHAR)")
	mustExec(t, s, "CREATE INDEX p_cat ON p (cat)")
	mustExec(t, s, "CREATE INDEX q_pid ON q (pid)")

	queries := []string{
		"SELECT id, cat, val FROM p",
		"SELECT id, cat, val FROM p WHERE cat = 3",
		"SELECT id FROM p WHERE cat IN (1, 4, 7)",
		"SELECT id, val FROM p WHERE id = 17",
		"SELECT id, cat FROM p WHERE cat > 3 AND cat <= 7",
		"SELECT id, cat FROM p WHERE cat BETWEEN 2 AND 5 AND val < 50",
		"SELECT id, cat FROM p WHERE id >= 40 AND id < 60",
		"SELECT id, cat, val FROM p ORDER BY cat LIMIT 7",
		"SELECT id, cat, val FROM p ORDER BY cat DESC LIMIT 7",
		"SELECT id, cat, val FROM p ORDER BY cat LIMIT 5 OFFSET 3",
		"SELECT id, cat, val FROM p ORDER BY id DESC LIMIT 4",
		"SELECT id, cat FROM p WHERE cat >= 2 ORDER BY cat LIMIT 6",
		"SELECT id, cat FROM p WHERE val < 70 ORDER BY cat DESC LIMIT 6",
		"SELECT id, val FROM p WHERE cat = 4 ORDER BY cat LIMIT 5",
		"SELECT id, cat, val FROM p ORDER BY cat, id",
		"SELECT COUNT(*), MIN(val), MAX(val) FROM p",
		"SELECT cat, COUNT(*) FROM p GROUP BY cat ORDER BY cat",
		"SELECT p.id, q.w FROM p, q WHERE p.id = q.pid ORDER BY p.id, q.w",
		"SELECT COUNT(*) FROM p, q WHERE p.id = q.pid AND p.cat = 2",
		// Joins without ORDER BY: both plans must meet matches in rowid
		// order, including probes into p_cat, whose buckets updates leave
		// out of rowid order.
		"SELECT q.id, p.id, p.val FROM q JOIN p ON q.pid = p.id",
		"SELECT p.id, q.id, q.w FROM p LEFT JOIN q ON q.pid = p.id WHERE p.cat = 3",
		"SELECT q.id, p.id FROM q JOIN p ON p.cat = q.pid LIMIT 9",
		"SELECT q.id, p.id FROM q LEFT JOIN p ON p.cat = q.pid WHERE p.val > 50 OR p.id IS NULL LIMIT 6 OFFSET 2",
		"SELECT p.id, q.id FROM p JOIN q ON q.pid < p.id WHERE p.cat = 2 AND q.w > 90",
		"SELECT a.id, q.id, b.id FROM p a JOIN q ON q.pid = a.id LEFT JOIN p b ON b.cat = a.cat LIMIT 20",
		"SELECT p.cat, COUNT(*), SUM(q.w), MIN(q.id) FROM p JOIN q ON q.pid = p.id GROUP BY p.cat ORDER BY p.cat",
		"SELECT p.id, q.w FROM p JOIN q ON q.pid = p.id ORDER BY q.w DESC LIMIT 5",
		// Conjuncts on the last stage's own columns: q is smaller than p,
		// so the planned join scans q once and probes the rows the
		// conjunct keeps; with p as the inner table, larger than q, it
		// probes p's index.
		"SELECT p.id, q.id, q.tag FROM p JOIN q ON q.pid = p.id WHERE q.tag LIKE 't1%'",
		"SELECT p.id, q.id FROM p JOIN q ON p.id = q.pid WHERE q.tag NOT LIKE '%3%' AND q.w >= 20",
		"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE q.w > 50 LIMIT 7",
		"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE p.cat = 2 AND q.tag LIKE '%T2_'",
		"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE p.val > 20 AND q.tag LIKE '%1%' AND q.w < p.val",
		"SELECT q.id, p.id FROM q JOIN p ON p.id = q.pid WHERE p.val > 50",
		"SELECT q.id, p.id, p.cat FROM q JOIN p ON p.cat = q.pid WHERE p.cat >= 3 AND q.tag LIKE 't%'",
		"SELECT p.id, q.id, q.tag FROM p LEFT JOIN q ON q.pid = p.id WHERE q.tag LIKE 't%'",
		"SELECT p.cat, COUNT(*), SUM(q.w) FROM p JOIN q ON q.pid = p.id WHERE q.tag LIKE '%2' GROUP BY p.cat ORDER BY p.cat",
	}
	// Bound parameters, including a NULL pattern, and a stage's own
	// conjunct behind one that fails: the division's error must surface
	// whether or not the conjunct could have pruned the row.
	bound := []struct {
		sql    string
		params []sqlval.Value
	}{
		{"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE q.tag LIKE ?", []sqlval.Value{sqlval.Null}},
		{"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE q.tag NOT LIKE ?", []sqlval.Value{sqlval.Null}},
		{"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE q.tag LIKE ? AND q.w < ?", []sqlval.Value{sqlval.String_("T%"), sqlval.Int(60)}},
		{"SELECT id, cat FROM p WHERE ? < val AND cat <> ?", []sqlval.Value{sqlval.Int(30), sqlval.Int(4)}},
		{"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE 1 / (q.w - q.w) > 0 AND q.tag LIKE 'zzz'", nil},
		{"SELECT p.id, q.id FROM p JOIN q ON q.pid = p.id WHERE q.tag LIKE 'zzz' AND 1 / (q.w - q.w) > 0", nil},
	}
	check := func() {
		for _, q := range queries {
			runBothPlans(t, e, s, q)
		}
		for _, b := range bound {
			var st sqlparser.Statement = parseOrFail(t, b.sql)
			if b.params != nil {
				st = &sqlparser.Bound{Stmt: st, SQL: b.sql, Params: b.params}
			}
			planned, perr := s.Exec(st)
			e.noIndexPlan.Store(true)
			scanned, serr := s.Exec(st)
			e.noIndexPlan.Store(false)
			if fmt.Sprint(perr) != fmt.Sprint(serr) {
				t.Fatalf("%q: planned error %v, full scan error %v", b.sql, perr, serr)
			}
			if perr == nil && fmt.Sprint(planned.Rows) != fmt.Sprint(scanned.Rows) {
				t.Fatalf("%q: planned %v, full scan %v", b.sql, planned.Rows, scanned.Rows)
			}
		}
	}

	rng := rand.New(rand.NewSource(42))
	nextID := 0
	for round := 0; round < 30; round++ {
		for i := 0; i < 10; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				cat := fmt.Sprintf("%d", rng.Intn(10))
				if rng.Intn(8) == 0 {
					cat = "NULL" // exercise NULL-first ordering boundaries
				}
				mustExec(t, s, fmt.Sprintf("INSERT INTO p (id, cat, val) VALUES (%d, %s, %d)", nextID, cat, rng.Intn(100)))
				if rng.Intn(2) == 0 {
					tag := [...]string{"'t%d'", "'T%d'", "'%dt'", "NULL"}[rng.Intn(4)]
					if tag != "NULL" {
						tag = fmt.Sprintf(tag, rng.Intn(40))
					}
					mustExec(t, s, fmt.Sprintf("INSERT INTO q (id, pid, w, tag) VALUES (%d, %d, %d, %s)", nextID, rng.Intn(nextID+1), rng.Intn(100), tag))
				}
				nextID++
			case 2:
				mustExec(t, s, fmt.Sprintf("UPDATE p SET val = val + 1, cat = %d WHERE id = %d", rng.Intn(10), rng.Intn(nextID+1)))
			case 3:
				mustExec(t, s, fmt.Sprintf("DELETE FROM p WHERE id = %d", rng.Intn(nextID+1)))
			case 4:
				// A rolled-back transaction must leave both plans unchanged.
				mustExec(t, s, "BEGIN")
				mustExec(t, s, fmt.Sprintf("UPDATE p SET val = -1 WHERE cat = %d", rng.Intn(10)))
				// Own uncommitted writes are visible to both plans.
				check()
				mustExec(t, s, "ROLLBACK")
			}
		}
		check()
	}
}

// TestTransactionSnapshotStability: a transaction pins its snapshot at
// BEGIN, so its reads are repeatable — a concurrent commit is invisible
// until the transaction ends, and visible right after.
func TestTransactionSnapshotStability(t *testing.T) {
	e := New("stable")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO a (id, v) VALUES (1, 1)")

	r := e.NewSession()
	defer r.Close()
	mustExec(t, r, "BEGIN")
	if res := mustExec(t, r, "SELECT v FROM a WHERE id = 1"); res.Rows[0][0].I != 1 {
		t.Fatalf("first read saw %d, want 1", res.Rows[0][0].I)
	}
	mustExec(t, s, "UPDATE a SET v = 2 WHERE id = 1")
	mustExec(t, s, "INSERT INTO a (id, v) VALUES (2, 2)")
	if res := mustExec(t, r, "SELECT v FROM a WHERE id = 1"); res.Rows[0][0].I != 1 {
		t.Fatalf("repeated read saw %d, want pinned 1", res.Rows[0][0].I)
	}
	if res := mustExec(t, r, "SELECT COUNT(*) FROM a"); res.Rows[0][0].I != 1 {
		t.Fatalf("pinned COUNT(*) = %d, want 1", res.Rows[0][0].I)
	}
	mustExec(t, r, "COMMIT")
	if res := mustExec(t, r, "SELECT v FROM a WHERE id = 1"); res.Rows[0][0].I != 2 {
		t.Fatalf("post-commit read saw %d, want 2", res.Rows[0][0].I)
	}
	if res := mustExec(t, r, "SELECT COUNT(*) FROM a"); res.Rows[0][0].I != 2 {
		t.Fatalf("post-commit COUNT(*) = %d, want 2", res.Rows[0][0].I)
	}
}

// TestGCReclaimsVersionsAfterReadersDrain is the version-leak check: a
// pinned reader holds the GC watermark back while a writer churns versions;
// once the reader drains, the next sweep reclaims every superseded version.
func TestGCReclaimsVersionsAfterReadersDrain(t *testing.T) {
	e := New("gc", WithGCThreshold(1)) // sweep at every opportunity
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE g (id INTEGER PRIMARY KEY, v INTEGER)")
	const rows = 8
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO g (id, v) VALUES (%d, 0)", i))
	}

	// Reader pins an old epoch for the duration of its transaction.
	r := e.NewSession()
	mustExec(t, r, "BEGIN")
	mustExec(t, r, "SELECT COUNT(*) FROM g")

	const churn = 50
	for i := 0; i < churn; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE g SET v = %d WHERE id = %d", i+1, i%rows))
	}
	// The pinned reader must keep the superseded versions alive.
	if vs := e.VersionStatsSnapshot(); vs.Versions <= rows {
		t.Fatalf("versions = %d with a pinned reader, want > %d (GC ran past the pin)", vs.Versions, rows)
	}
	// The reader still sees its pinned snapshot through the churn.
	if res := mustExec(t, r, "SELECT COUNT(*) FROM g WHERE v = 0"); res.Rows[0][0].I != rows {
		t.Fatalf("pinned reader saw %d unmodified rows, want %d", res.Rows[0][0].I, rows)
	}
	mustExec(t, r, "COMMIT")
	r.Close()

	// One more write gives the (threshold-1) engine a sweep opportunity with
	// the watermark now unpinned: every superseded version must go.
	mustExec(t, s, "UPDATE g SET v = -1 WHERE id = 0")
	vs := e.VersionStatsSnapshot()
	if vs.Chains != rows {
		t.Fatalf("chains = %d, want %d", vs.Chains, rows)
	}
	if vs.Versions != rows {
		t.Fatalf("versions = %d after readers drained, want %d (superseded versions leaked)", vs.Versions, rows)
	}
}

// TestGCSweepOnSessionClose: when the draining session was itself the pin
// holding the watermark back, its Close runs the sweep — no later write is
// needed for reclamation.
func TestGCSweepOnSessionClose(t *testing.T) {
	e := New("gcclose", WithGCThreshold(1000000)) // never sweep on threshold
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE g (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO g (id, v) VALUES (1, 0)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE g SET v = %d WHERE id = 1", i+1))
	}
	if vs := e.VersionStatsSnapshot(); vs.Versions <= 1 {
		t.Fatalf("versions = %d before close, want > 1", vs.Versions)
	}
	s.Close()
	if vs := e.VersionStatsSnapshot(); vs.Versions != 1 {
		t.Fatalf("versions = %d after close, want 1", vs.Versions)
	}
}

// TestAutoCommitVersionDebtBounded: a session that is never closed — the
// benchmark's pre-bound auto-commit writers — reclaims through the
// statement-end trigger alone. Under uniform single-row updates of a table
// far larger than any one step, superseded versions must stay within the
// default threshold (256) plus the statement in flight, at every sample.
func TestAutoCommitVersionDebtBounded(t *testing.T) {
	const rows = 20000
	const maxLag = 256 + 1
	e := New("debt")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)")
	for lo := 0; lo < rows; lo += 500 {
		mustExec(t, s, pointInsert(lo, 500))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= rows; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE id = %d", rng.Intn(rows)))
		if i%1000 != 0 {
			continue
		}
		vs := e.VersionStatsSnapshot()
		if lag := vs.Versions - vs.Chains; lag > maxLag {
			t.Fatalf("after %d updates %d superseded versions linger, want <= %d", i, lag, maxLag)
		}
	}
}

// onChain reports whether v is still linked on ch.
func onChain(ch *rowChain, v *rowVersion) bool {
	for x := ch.head.Load(); x != nil; x = x.prev.Load() {
		if x == v {
			return true
		}
	}
	return false
}

// TestPurgeListExactUnderUndo: undo pops versions off chains, and the purge
// list must follow — it never names a popped version, an undone insert's
// chain leaves rows at once, and one step after each case leaves exactly
// one version per chain. Committed updates sit in front of each case so
// the undo has to find its own entries at the tail.
func TestPurgeListExactUnderUndo(t *testing.T) {
	const rows = 10
	e := New("undo", WithGCThreshold(1<<20)) // steps run only when called
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE g (id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO g (id, v) VALUES (%d, 0)", i))
	}
	tbl := e.tables["g"]
	check := func(name string, entries int) {
		t.Helper()
		if len(tbl.purge) != entries {
			t.Errorf("%s: %d purge entries, want %d", name, len(tbl.purge), entries)
		}
		for _, p := range tbl.purge {
			if !onChain(p.ch, p.v) {
				t.Errorf("%s: a purge entry names a popped version of row %d", name, p.ch.id)
			}
		}
		e.gcStep()
		if vs := e.VersionStatsSnapshot(); vs.Chains != rows || vs.Versions != rows {
			t.Errorf("%s: one step left %+v, want %d chains of one version", name, vs, rows)
		}
		if len(tbl.purge) != 0 {
			t.Errorf("%s: %d purge entries after the step", name, len(tbl.purge))
		}
	}
	committed := func() {
		mustExec(t, s, "UPDATE g SET v = v + 1 WHERE id = 7")
		mustExec(t, s, "UPDATE g SET v = v + 1 WHERE id = 8")
	}

	committed()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE g SET v = v + 10 WHERE id < 5")
	mustExec(t, s, "UPDATE g SET v = v + 10 WHERE id = 2") // a second version on one chain
	mustExec(t, s, "ROLLBACK")
	check("rolled-back update", 2)

	committed()
	// The first row moves to id 100; the second then collides with it.
	if _, err := s.ExecSQL("UPDATE g SET id = 100 WHERE id < 2"); err == nil || !strings.Contains(err.Error(), "unique") {
		t.Fatalf("moving two rows to one primary key: %v, want a unique violation", err)
	}
	check("failed statement", 2)

	committed()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO g (id, v) VALUES (50, 0)")
	inserted := tbl.nextID - 1
	mustExec(t, s, "UPDATE g SET v = 1 WHERE id = 50")
	mustExec(t, s, "ROLLBACK")
	if _, ok := tbl.rows[inserted]; ok {
		t.Error("undone insert: its chain is still in rows")
	}
	check("undone insert", 2)
	if res := mustExec(t, s, "SELECT COUNT(*), SUM(v) FROM g"); res.Rows[0][0].I != rows || res.Rows[0][1].I != 6 {
		t.Errorf("after the undo cases: COUNT, SUM = %v, want %d, 6", res.Rows[0], rows)
	}
}

// TestPurgeDeleteCompactionIsAmortized: deleting half of a table one row
// per statement, with a step after every statement, retires each chain at
// once but compacts the scan order and the indexes only when dead chains
// reach a fixed fraction of the slab — O(log n) compactions, not one per
// step. Deletes append nothing to the slab, so each new slab pointer is one
// compaction.
func TestPurgeDeleteCompactionIsAmortized(t *testing.T) {
	const rows = 20000
	e := New("compact", WithGCThreshold(1))
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)")
	for lo := 0; lo < rows; lo += 500 {
		mustExec(t, s, pointInsert(lo, 500))
	}
	tbl := e.tables["kv"]
	slab, compactions := tbl.order.Load(), 0
	for id := 0; id < rows; id += 2 {
		mustExec(t, s, fmt.Sprintf("DELETE FROM kv WHERE id = %d", id))
		if cur := tbl.order.Load(); cur != slab {
			slab = cur
			compactions++
		}
	}
	if limit := bits.Len(rows); compactions == 0 || compactions > limit {
		t.Errorf("%d compactions over %d deletes, want 1..%d", compactions, rows/2, limit)
	}
	if vs := e.VersionStatsSnapshot(); vs.Chains != rows/2 || vs.Versions != rows/2 {
		t.Errorf("after the deletes: %+v, want %d chains of one version", vs, rows/2)
	}
	if res := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE id < 100"); res.Rows[0][0].I != 50 {
		t.Errorf("rows left below id 100: %v, want 50", res.Rows[0][0])
	}
}

// TestPurgeUnderConcurrentWriters: writers on their own tables commit and
// roll back while every statement end runs a step that drains all purge
// lists — the ones other writers are appending to and popping from — and a
// reader's transactions hold the watermark back part of the time. Each
// writer keeps a model of its table; at the end every table matches its
// model and one exact sweep leaves one version per chain. Under -race this
// also checks that the lists are touched only under their table's latch.
func TestPurgeUnderConcurrentWriters(t *testing.T) {
	const writers, rows, iters = 4, 50, 300
	e := New("purgerace", WithGCThreshold(1))
	s := e.NewSession()
	models := make([]map[int]int, writers)
	for w := range models {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE w%d (id INTEGER PRIMARY KEY, v INTEGER)", w))
		models[w] = make(map[int]int)
		for i := 0; i < rows; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO w%d (id, v) VALUES (%d, 0)", w, i))
			models[w][i] = 0
		}
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rs := e.NewSession()
		defer rs.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, sql := range []string{"BEGIN", fmt.Sprintf("SELECT SUM(v) FROM w%d", i%writers), "COMMIT"} {
				if _, err := rs.ExecSQL(sql); err != nil {
					t.Errorf("reader: %q: %v", sql, err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := range models {
		wg.Add(1)
		go func(w int, model map[int]int) {
			defer wg.Done()
			ws := e.NewSession()
			defer ws.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			next := rows
			for i := 0; i < iters; i++ {
				id := rng.Intn(next)
				var stmts []string
				switch rng.Intn(4) {
				case 0:
					stmts = []string{fmt.Sprintf("INSERT INTO w%d (id, v) VALUES (%d, 0)", w, next)}
					model[next] = 0
					next++
				case 1:
					stmts = []string{fmt.Sprintf("UPDATE w%d SET v = v + 1 WHERE id = %d", w, id)}
					if _, ok := model[id]; ok {
						model[id]++
					}
				case 2:
					stmts = []string{fmt.Sprintf("DELETE FROM w%d WHERE id = %d", w, id)}
					delete(model, id)
				case 3:
					stmts = []string{
						"BEGIN",
						fmt.Sprintf("UPDATE w%d SET v = v + 100 WHERE id < 10", w),
						fmt.Sprintf("DELETE FROM w%d WHERE id = %d", w, id),
						fmt.Sprintf("INSERT INTO w%d (id, v) VALUES (%d, 0)", w, -1-i),
						"ROLLBACK",
					}
				}
				for _, sql := range stmts {
					if _, err := ws.ExecSQL(sql); err != nil {
						t.Errorf("writer %d: %q: %v", w, sql, err)
						return
					}
				}
			}
		}(w, models[w])
	}
	wg.Wait()
	close(stop)
	<-readerDone

	live := 0
	for w, model := range models {
		live += len(model)
		res := mustExec(t, s, fmt.Sprintf("SELECT id, v FROM w%d", w))
		if len(res.Rows) != len(model) {
			t.Errorf("w%d: %d rows, want %d", w, len(res.Rows), len(model))
		}
		for _, r := range res.Rows {
			if v, ok := model[int(r[0].I)]; !ok || int64(v) != r[1].I {
				t.Errorf("w%d: row %v, model has %d (present %v)", w, r, v, ok)
			}
		}
	}
	e.GC()
	if vs := e.VersionStatsSnapshot(); vs.Chains != live || vs.Versions != live {
		t.Errorf("after the exact sweep: %+v, want %d chains of one version", vs, live)
	}
}

// TestConcurrentSnapshotReadersSeeOneEpoch: a multi-row transfer commits
// atomically — every concurrent snapshot scan must observe an invariant sum
// (no torn read can mix pre- and post-transfer rows), under -race.
func TestConcurrentSnapshotReadersSeeOneEpoch(t *testing.T) {
	e := New("epoch")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
	const accts = 10
	const each = 100
	for i := 0; i < accts; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, %d)", i, each))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rs := e.NewSession()
			defer rs.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := rs.ExecSQL("SELECT SUM(bal) FROM acct")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if sum := res.Rows[0][0].I; sum != accts*each {
					t.Errorf("torn snapshot: SUM(bal) = %d, want %d", sum, accts*each)
					return
				}
			}
		}(g)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		from, to := rng.Intn(accts), rng.Intn(accts)
		amt := rng.Intn(20)
		mustExec(t, s, "BEGIN")
		mustExec(t, s, fmt.Sprintf("UPDATE acct SET bal = bal - %d WHERE id = %d", amt, from))
		mustExec(t, s, fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id = %d", amt, to))
		mustExec(t, s, "COMMIT")
	}
	close(stop)
	wg.Wait()
}
