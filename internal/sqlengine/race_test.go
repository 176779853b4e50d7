package sqlengine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestConcurrentReadersWithWriter drives 16 reader sessions concurrently
// with one writer session on a single engine, the shape the RW read path
// must survive under -race: readers share the engine lock while the writer
// repeatedly takes it exclusively for inserts, updates, deletes, index DDL
// and transaction rollbacks.
func TestConcurrentReadersWithWriter(t *testing.T) {
	e := New("race")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (id INTEGER PRIMARY KEY, cat INTEGER, val INTEGER)")
	mustExec(t, s, "CREATE INDEX r_cat ON r (cat)")
	const seedRows = 400
	for i := 0; i < seedRows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO r (id, cat, val) VALUES (%d, %d, %d)", i, i%20, i))
	}

	const readers = 16
	const iters = 300
	var wg sync.WaitGroup

	// Writer: churns rows, transactions and rollbacks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws := e.NewSession()
		defer ws.Close()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < iters; i++ {
			id := seedRows + i
			if _, err := ws.ExecSQL(fmt.Sprintf("INSERT INTO r (id, cat, val) VALUES (%d, %d, %d)", id, id%20, id)); err != nil {
				t.Errorf("writer insert: %v", err)
				return
			}
			switch rng.Intn(4) {
			case 0:
				if _, err := ws.ExecSQL(fmt.Sprintf("UPDATE r SET val = val + 1 WHERE id = %d", rng.Intn(seedRows))); err != nil {
					t.Errorf("writer update: %v", err)
					return
				}
			case 1:
				if _, err := ws.ExecSQL(fmt.Sprintf("DELETE FROM r WHERE id = %d", seedRows+rng.Intn(i+1))); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
			case 2:
				// A transaction that always rolls back exercises the undo
				// log's exclusive-lock replay against concurrent readers.
				for _, sql := range []string{
					"BEGIN",
					fmt.Sprintf("UPDATE r SET val = -1 WHERE cat = %d", rng.Intn(20)),
					"ROLLBACK",
				} {
					if _, err := ws.ExecSQL(sql); err != nil {
						t.Errorf("writer %q: %v", sql, err)
						return
					}
				}
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rs := e.NewSession()
			defer rs.Close()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < iters; i++ {
				switch rng.Intn(4) {
				case 0:
					id := rng.Intn(seedRows)
					res, err := rs.ExecSQL(fmt.Sprintf("SELECT id, cat, val FROM r WHERE id = %d", id))
					if err != nil {
						t.Errorf("reader point: %v", err)
						return
					}
					for _, row := range res.Rows {
						if row[0].I != int64(id) {
							t.Errorf("point query for %d returned id %d", id, row[0].I)
							return
						}
					}
				case 1:
					cat := rng.Intn(20)
					res, err := rs.ExecSQL(fmt.Sprintf("SELECT id FROM r WHERE cat = %d", cat))
					if err != nil {
						t.Errorf("reader index scan: %v", err)
						return
					}
					for _, row := range res.Rows {
						if row[0].I%20 != int64(cat) {
							t.Errorf("cat query for %d returned id %d", cat, row[0].I)
							return
						}
					}
				case 2:
					if _, err := rs.ExecSQL(fmt.Sprintf("SELECT id FROM r WHERE cat IN (%d, %d) LIMIT 5", rng.Intn(20), rng.Intn(20))); err != nil {
						t.Errorf("reader IN: %v", err)
						return
					}
				default:
					res, err := rs.ExecSQL("SELECT COUNT(*), MIN(id), MAX(val) FROM r")
					if err != nil {
						t.Errorf("reader agg: %v", err)
						return
					}
					if res.Rows[0][0].I < 1 {
						t.Errorf("count dropped to %d", res.Rows[0][0].I)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The engine must still be internally consistent: the scan count, the
	// row map and an index-planned count all agree.
	res := mustExec(t, s, "SELECT COUNT(*) FROM r")
	n, err := e.RowCount("r")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != int64(n) {
		t.Fatalf("COUNT(*) = %d, RowCount = %d", res.Rows[0][0].I, n)
	}
	var byCat int64
	for c := 0; c < 20; c++ {
		r := mustExec(t, s, fmt.Sprintf("SELECT COUNT(*) FROM r WHERE cat = %d", c))
		byCat += r.Rows[0][0].I
	}
	if byCat != int64(n) {
		t.Fatalf("sum of per-cat counts = %d, total = %d", byCat, n)
	}
}

// TestSelectCompletesWhileWriteInFlight proves the MVCC read-path claims
// deterministically (independent of core count): a SELECT of table g
// completes — and returns the last committed value — while a conflicting
// write holds g's lock-manager ticket (uncommitted transaction), and even
// while a writer holds g's storage latch exclusively mid-statement. Readers
// never appear in the lock manager and never touch the latch, so neither
// can block them.
func TestSelectCompletesWhileWriteInFlight(t *testing.T) {
	e := New("mvcc")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE g (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO g (id, v) VALUES (1, 10)")

	// An uncommitted transaction holds g's exclusive table lock (ticket
	// FIFO) and has pushed an uncommitted version of the row.
	ws := e.NewSession()
	defer ws.Close()
	mustExec(t, ws, "BEGIN")
	mustExec(t, ws, "UPDATE g SET v = 99 WHERE id = 1")

	readDone := make(chan struct{})
	var got int64
	go func() {
		defer close(readDone)
		rs := e.NewSession()
		defer rs.Close()
		res, err := rs.ExecSQL("SELECT v FROM g WHERE id = 1")
		if err != nil {
			t.Errorf("read under in-flight write: %v", err)
			return
		}
		if len(res.Rows) != 1 {
			t.Errorf("read under in-flight write: %d rows, want 1", len(res.Rows))
			return
		}
		got = res.Rows[0][0].I
	}()
	select {
	case <-readDone:
		if got != 10 {
			t.Fatalf("snapshot read saw v=%d, want committed 10 (uncommitted was 99)", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a SELECT blocked behind a conflicting write's ticket")
	}
	// The writer itself still sees its own uncommitted version.
	if res := mustExec(t, ws, "SELECT v FROM g WHERE id = 1"); res.Rows[0][0].I != 99 {
		t.Fatalf("writer saw v=%d, want own uncommitted 99", res.Rows[0][0].I)
	}
	mustExec(t, ws, "COMMIT")
	if res := mustExec(t, s, "SELECT v FROM g WHERE id = 1"); res.Rows[0][0].I != 99 {
		t.Fatalf("post-commit read saw v=%d, want 99", res.Rows[0][0].I)
	}

	// Harsher: a writer parked mid-statement, holding g's storage latch
	// exclusively. Pre-MVCC this latch blocked every reader of g; now a
	// SELECT must still complete.
	e.tables["g"].store.Lock()
	rs := e.NewSession()
	latchedRead := make(chan struct{})
	go func() {
		defer close(latchedRead)
		res, err := rs.ExecSQL("SELECT v FROM g WHERE id = 1")
		if err != nil {
			t.Errorf("read under held latch: %v", err)
			return
		}
		if res.Rows[0][0].I != 99 {
			t.Errorf("read under held latch saw v=%d, want 99", res.Rows[0][0].I)
		}
	}()
	select {
	case <-latchedRead:
	case <-time.After(5 * time.Second):
		e.tables["g"].store.Unlock()
		t.Fatal("a SELECT blocked on the table's storage latch: readers latch")
	}
	// Close only after the latch drops: session close may run a GC sweep,
	// which (like any writer) takes the storage latch.
	e.tables["g"].store.Unlock()
	rs.Close()
}

// TestCreateTableAsSelectConcurrentReaders: CREATE TABLE ... AS SELECT must
// populate the table before publishing it — once a concurrent reader can
// resolve the name, it must see the complete row set (run with -race).
func TestCreateTableAsSelectConcurrentReaders(t *testing.T) {
	e := New("ctas")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE src (id INTEGER PRIMARY KEY, v INTEGER)")
	const rows = 100
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO src (id, v) VALUES (%d, %d)", i, i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := e.NewSession()
			defer rs.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := rs.ExecSQL("SELECT COUNT(*) FROM c")
				if err != nil {
					continue // not yet created or just dropped
				}
				if n := res.Rows[0][0].I; n != rows {
					t.Errorf("reader saw %d of %d rows in a published table", n, rows)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		mustExec(t, s, "CREATE TABLE c AS SELECT id, v FROM src")
		mustExec(t, s, "DROP TABLE c")
	}
	close(stop)
	wg.Wait()
}

// TestOppositeOrderJoinsDoNotDeadlockWithWriters is the regression guard
// for reader-latch ordering: sync.RWMutex blocks new readers behind a
// pending writer, so if joins latched tables in FROM-clause order, a
// `FROM a, b` reader and a `FROM b, a` reader plus one pending writer per
// table could cycle and hang forever (no timeout covers storage latches).
// Latching in sorted name order makes the cycle impossible; this drives
// the exact adversarial mix under a watchdog.
func TestOppositeOrderJoinsDoNotDeadlockWithWriters(t *testing.T) {
	e := New("latchorder")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER)")
	for i := 0; i < 4; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO a (id, v) VALUES (%d, 0)", i))
		mustExec(t, s, fmt.Sprintf("INSERT INTO b (id, v) VALUES (%d, 0)", i))
	}

	const iters = 300
	var wg sync.WaitGroup
	work := []string{
		"SELECT COUNT(*) FROM a, b",
		"SELECT COUNT(*) FROM b, a",
		"UPDATE a SET v = v + 1 WHERE id = 1",
		"UPDATE b SET v = v + 1 WHERE id = 1",
	}
	for _, q := range work {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			ws := e.NewSession()
			defer ws.Close()
			for i := 0; i < iters; i++ {
				if _, err := ws.ExecSQL(q); err != nil {
					t.Errorf("%q: %v", q, err)
					return
				}
			}
		}(q)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("opposite-order joins deadlocked against pending writers")
	}
}

// TestTempTableDDLDoesNotWaitForReaders: creating and dropping a temporary
// table change only the session's own namespace, so they take the catalog
// lock shared and complete while another session's SELECT holds it; a
// permanent CREATE TABLE changes the catalog and waits for the reader.
func TestTempTableDDLDoesNotWaitForReaders(t *testing.T) {
	e := New("tmpddl")
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE src (id INTEGER PRIMARY KEY, v INTEGER)")
	mustExec(t, s, "INSERT INTO src (id, v) VALUES (1, 10), (2, 20), (3, 10)")

	// A reader on another shard holds the catalog lock shared, as a
	// SELECT in flight does.
	reader := (s.shard + 1) & e.mu.mask
	e.mu.RLock(reader)
	released := false
	release := func() {
		if !released {
			released = true
			e.mu.RUnlock(reader)
		}
	}
	defer release()

	done := make(chan error, 1)
	go func() {
		_, err := s.ExecSQL("CREATE TEMPORARY TABLE tmp AS SELECT v, COUNT(*) AS n FROM src GROUP BY v")
		if err == nil {
			var res *Result
			if res, err = s.ExecSQL("SELECT n FROM tmp WHERE v = 10"); err == nil && (len(res.Rows) != 1 || res.Rows[0][0].I != 2) {
				err = fmt.Errorf("temporary table rows: %v", res.Rows)
			}
		}
		if err == nil {
			_, err = s.ExecSQL("DROP TABLE tmp")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		release()
		<-done
		t.Fatal("temporary CREATE … AS SELECT or DROP waited for a reader")
	}

	go func() {
		_, err := s.ExecSQL("CREATE TABLE perm (id INTEGER)")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("permanent CREATE TABLE did not wait for the reader (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
