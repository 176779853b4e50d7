package sqlengine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
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
	mustExec(t, s, "CREATE TABLE q (id INTEGER PRIMARY KEY, pid INTEGER, w INTEGER)")
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
	}
	check := func() {
		for _, q := range queries {
			runBothPlans(t, e, s, q)
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
					mustExec(t, s, fmt.Sprintf("INSERT INTO q (id, pid, w) VALUES (%d, %d, %d)", nextID, rng.Intn(nextID+1), rng.Intn(100)))
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
