package controller

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// mkConflictVDB builds a vdb over n engines seeded with k disjoint tables
// t0..t(k-1), each holding rows (id, v) = (0..rows-1, 0). Engines get a
// long lock timeout so deliberately blocked writers never time out in CI.
func mkConflictVDB(t *testing.T, n, k, rows int) (*VirtualDatabase, []*sqlengine.Engine) {
	t.Helper()
	var seed []string
	for i := 0; i < k; i++ {
		seed = append(seed, fmt.Sprintf("CREATE TABLE t%d (id INTEGER PRIMARY KEY, v INTEGER)", i))
		for r := 0; r < rows; r++ {
			seed = append(seed, fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, 0)", i, r))
		}
	}
	v := NewVirtualDatabase(VDBConfig{Name: "conflict", ParallelTx: true})
	engines := make([]*sqlengine.Engine, n)
	for i := 0; i < n; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i), sqlengine.WithLockTimeout(30*time.Second))
		s := e.NewSession()
		for _, q := range seed {
			if _, err := s.ExecSQL(q); err != nil {
				t.Fatalf("seed: %v", err)
			}
		}
		s.Close()
		engines[i] = e
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	return v, engines
}

// TestDisjointWritesDoNotBlockEachOther is the deterministic tentpole
// proof on one backend: a transaction holds t0's exclusive lock, so an
// auto-commit write to t0 blocks in execution; a subsequently submitted
// write to t1 must complete anyway. Pre-PR, the single global scheduler
// mutex plus the backend's single FIFO auto-commit lane plus the engine's
// all-shards write lock each head-of-line blocked the t1 write behind the
// stuck t0 write.
func TestDisjointWritesDoNotBlockEachOther(t *testing.T) {
	v, engines := mkConflictVDB(t, 1, 2, 2)
	b := v.Backends()[0]

	holder := openSession(t, v)
	exec(t, holder, "BEGIN")
	exec(t, holder, "UPDATE t0 SET v = 99 WHERE id = 0") // holds t0's lock

	// Submit the conflicting write first; it must stay blocked.
	blockedDone := make(chan error, 1)
	blocked := openSession(t, v)
	go func() {
		_, err := blocked.Exec("UPDATE t0 SET v = 1 WHERE id = 1", nil)
		blockedDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Pending() == 0 {
		t.Fatal("blocked write never reached the backend")
	}

	// Now a write to a disjoint table must flow around it.
	freeDone := make(chan error, 1)
	free := openSession(t, v)
	go func() {
		_, err := free.Exec("UPDATE t1 SET v = 7 WHERE id = 0", nil)
		freeDone <- err
	}()
	select {
	case err := <-freeDone:
		if err != nil {
			t.Fatalf("disjoint write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a write to t1 blocked behind a stuck write to t0")
	}
	select {
	case err := <-blockedDone:
		t.Fatalf("t0 write completed while t0 was locked (err=%v)", err)
	default:
	}

	exec(t, holder, "COMMIT")
	if err := <-blockedDone; err != nil {
		t.Fatalf("t0 write after commit: %v", err)
	}
	if got := countOn(t, engines[0], "SELECT v FROM t1 WHERE id = 0"); got != 7 {
		t.Fatalf("t1 row = %d, want 7", got)
	}
	if got := countOn(t, engines[0], "SELECT v FROM t0 WHERE id = 1"); got != 1 {
		t.Fatalf("t0 row = %d, want 1", got)
	}
}

// TestSameTableWritesSerializeInOrder: two writes to the same table keep
// their submission order even while the table is blocked by a transaction —
// the final value must be the second writer's.
func TestSameTableWritesSerializeInOrder(t *testing.T) {
	v, engines := mkConflictVDB(t, 1, 1, 2)
	b := v.Backends()[0]

	holder := openSession(t, v)
	exec(t, holder, "BEGIN")
	exec(t, holder, "UPDATE t0 SET v = 99 WHERE id = 1") // holds t0's lock

	w1Done := make(chan error, 1)
	w1 := openSession(t, v)
	go func() {
		_, err := w1.Exec("UPDATE t0 SET v = 1 WHERE id = 0", nil)
		w1Done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.Pending() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Pending() == 0 {
		t.Fatal("first write never reached the backend")
	}

	w2Done := make(chan error, 1)
	w2 := openSession(t, v)
	go func() {
		_, err := w2.Exec("UPDATE t0 SET v = 2 WHERE id = 0", nil)
		w2Done <- err
	}()
	// Both must stay queued behind the transaction's lock, in order.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-w1Done:
		t.Fatal("w1 completed while t0 was locked")
	case <-w2Done:
		t.Fatal("w2 completed while t0 was locked")
	default:
	}

	exec(t, holder, "COMMIT")
	if err := <-w1Done; err != nil {
		t.Fatalf("w1: %v", err)
	}
	if err := <-w2Done; err != nil {
		t.Fatalf("w2: %v", err)
	}
	if got := countOn(t, engines[0], "SELECT v FROM t0 WHERE id = 0"); got != 2 {
		t.Fatalf("final value = %d, want 2 (second writer last)", got)
	}
}

// TestWriteThenCommitKeepsOrderOnSlowBackend: under the early-response
// FIRST policy the client races ahead of the slow replica; the per-
// transaction lane must still deliver write before commit there, so the
// committed row eventually appears on every backend.
func TestWriteThenCommitKeepsOrderOnSlowBackend(t *testing.T) {
	v := NewVirtualDatabase(VDBConfig{Name: "order", ParallelTx: true, EarlyResponse: ResponseFirst})
	var engines []*sqlengine.Engine
	for i := 0; i < 2; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		s := e.NewSession()
		if _, err := s.ExecSQL("CREATE TABLE t0 (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
			t.Fatal(err)
		}
		s.Close()
		engines = append(engines, e)
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		if i == 1 {
			b.SetFaultPlan(backend.NewFaultPlan(backend.Slow(backend.OpAny, 2*time.Millisecond))) // the slow replica
		}
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	s := openSession(t, v)
	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO t0 (id, v) VALUES (1, 10)")
	exec(t, s, "COMMIT")

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if countOn(t, engines[1], "SELECT COUNT(*) FROM t0") == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("committed row never reached the slow backend: commit overtook the write")
}

// sortedTableDump renders a table's full contents in a canonical order for
// cross-backend comparison.
func sortedTableDump(t *testing.T, e *sqlengine.Engine, table string) string {
	t.Helper()
	_, rows, err := e.SnapshotTable(table)
	if err != nil {
		t.Fatalf("snapshot %s on %s: %v", table, e.Name(), err)
	}
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestReplicaConsistencyUnderConcurrentWrites is the replica-consistency
// property test: randomized concurrent writers over overlapping table sets
// — auto-commit updates, inserts, deletes, and multi-table transactions —
// must leave every backend with identical table contents, because
// conflicting writes are applied in one conflict-class order everywhere.
// Run with -race this doubles as the mixed disjoint/overlapping stress.
func TestReplicaConsistencyUnderConcurrentWrites(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		runReplicaConsistency(t, seed)
	}
}

// runReplicaConsistency is the randomized replica-consistency property body
// for one seed: all backends must end byte-identical.
func runReplicaConsistency(t *testing.T, seed int64) {
	const (
		nBackends = 3
		nTables   = 4
		nWriters  = 8
		nOps      = 60
		seedRows  = 8
	)
	{
		v, engines := mkConflictVDB(t, nBackends, nTables, seedRows)

		// Two extra tables carry the snapshot-reader assertions: inv holds a
		// conserved sum redistributed by multi-row transfer transactions
		// (any torn read breaks the invariant), mono a counter incremented
		// by auto-commit writes (any snapshot regression breaks per-session
		// monotonicity). Both are created through the VDB so every backend
		// replicates them.
		setup := openSession(t, v)
		exec(t, setup, "CREATE TABLE inv (id INTEGER PRIMARY KEY, v INTEGER)")
		const invRows, invEach = 5, 100
		for i := 0; i < invRows; i++ {
			exec(t, setup, fmt.Sprintf("INSERT INTO inv (id, v) VALUES (%d, %d)", i, invEach))
		}
		exec(t, setup, "CREATE TABLE mono (id INTEGER PRIMARY KEY, n INTEGER)")
		exec(t, setup, "INSERT INTO mono (id, n) VALUES (0, 0)")
		setup.Close()

		// Snapshot readers: one engine session per backend, reading
		// latch-free while the cluster writes. Every SUM over inv must land
		// on exactly one commit epoch, and mono's counter must never move
		// backwards within a session (epochs only advance on one engine).
		stopReaders := make(chan struct{})
		var readersWG sync.WaitGroup
		for bi := range engines {
			readersWG.Add(1)
			go func(e *sqlengine.Engine) {
				defer readersWG.Done()
				rs := e.NewSession()
				defer rs.Close()
				var lastN int64 = -1
				for {
					select {
					case <-stopReaders:
						return
					default:
					}
					res, err := rs.ExecSQL("SELECT SUM(v) FROM inv")
					if err != nil {
						t.Errorf("snapshot reader: %v", err)
						return
					}
					if sum := res.Rows[0][0].I; sum != invRows*invEach {
						t.Errorf("torn snapshot: SUM(inv.v) = %d, want %d", sum, invRows*invEach)
						return
					}
					res, err = rs.ExecSQL("SELECT n FROM mono WHERE id = 0")
					if err != nil {
						t.Errorf("snapshot reader: %v", err)
						return
					}
					if n := res.Rows[0][0].I; n < lastN {
						t.Errorf("snapshot went backwards: mono.n %d after %d", n, lastN)
						return
					} else {
						lastN = n
					}
				}
			}(engines[bi])
		}

		// Invariant-churning writers: transfers within inv and auto-commit
		// increments of mono, running alongside the main random workload.
		var invWG sync.WaitGroup
		invWG.Add(1)
		go func() {
			defer invWG.Done()
			rng := rand.New(rand.NewSource(seed * 31))
			s, err := v.NewSession("user", "pw")
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for i := 0; i < nOps; i++ {
				amt := rng.Intn(10)
				from, to := rng.Intn(invRows), rng.Intn(invRows)
				for _, q := range []string{
					"BEGIN",
					fmt.Sprintf("UPDATE inv SET v = v - %d WHERE id = %d", amt, from),
					fmt.Sprintf("UPDATE inv SET v = v + %d WHERE id = %d", amt, to),
					"COMMIT",
				} {
					if _, err := s.Exec(q, nil); err != nil {
						t.Errorf("transfer op %d %q: %v", i, q, err)
						return
					}
				}
				if _, err := s.Exec("UPDATE mono SET n = n + 1 WHERE id = 0", nil); err != nil {
					t.Errorf("mono increment %d: %v", i, err)
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for w := 0; w < nWriters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
				s, err := v.NewSession("user", "pw")
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Close()
				for i := 0; i < nOps; i++ {
					// Writers overlap: each favors two "home" tables but
					// sometimes strays, so disjoint and conflicting classes
					// mix continuously.
					tbl := (w + rng.Intn(3)) % nTables
					switch rng.Intn(5) {
					case 0:
						_, err = s.Exec(fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, %d)",
							tbl, 1000+w*nOps+i, rng.Intn(100)), nil)
					case 1:
						_, err = s.Exec(fmt.Sprintf("DELETE FROM t%d WHERE id = %d", tbl, rng.Intn(seedRows)), nil)
					case 2:
						// A cross-table transaction exercises footprint
						// accumulation: its commit must order against both
						// classes. Tables are acquired in index order — the
						// standard client-side deadlock-avoidance discipline;
						// opposite-order transactions would deadlock under
						// strict 2PL (resolved by lock timeout) on any
						// version of this engine.
						other := (tbl + 1) % nTables
						lo, hi := tbl, other
						if lo > hi {
							lo, hi = hi, lo
						}
						for _, q := range []string{
							"BEGIN",
							fmt.Sprintf("UPDATE t%d SET v = v + 1 WHERE id = %d", lo, rng.Intn(seedRows)),
							fmt.Sprintf("UPDATE t%d SET v = %d WHERE id = %d", hi, rng.Intn(100), rng.Intn(seedRows)),
							"COMMIT",
						} {
							if _, err = s.Exec(q, nil); err != nil {
								break
							}
						}
					default:
						_, err = s.Exec(fmt.Sprintf("UPDATE t%d SET v = %d WHERE id = %d",
							tbl, rng.Intn(100), rng.Intn(seedRows)), nil)
					}
					if err != nil {
						t.Errorf("writer %d op %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		invWG.Wait()
		close(stopReaders)
		readersWG.Wait()

		tables := make([]string, 0, nTables+2)
		for ti := 0; ti < nTables; ti++ {
			tables = append(tables, fmt.Sprintf("t%d", ti))
		}
		tables = append(tables, "inv", "mono")
		for _, tbl := range tables {
			want := sortedTableDump(t, engines[0], tbl)
			for bi := 1; bi < nBackends; bi++ {
				got := sortedTableDump(t, engines[bi], tbl)
				if got != want {
					t.Fatalf("seed %d: backend %d diverged on %s:\n--- db0:\n%s\n--- db%d:\n%s",
						seed, bi, tbl, want, bi, got)
				}
			}
		}
	}
}

// TestSequencerDisjointClassesDoNotBlock exercises the scheduler's
// conflict-class sequencer directly: holding class {a} must not block class
// {b}, must block class {a,c}, and a global ticket must block everything.
func TestSequencerDisjointClassesDoNotBlock(t *testing.T) {
	s := NewScheduler(1, ResponseAll, true)

	a := s.LockClass([]string{"a"}, false)

	done := make(chan struct{})
	go func() {
		b := s.LockClass([]string{"b"}, false)
		b.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("class {b} blocked behind held class {a}")
	}

	acBlocked := make(chan struct{})
	go func() {
		ac := s.LockClass([]string{"a", "c"}, false)
		ac.Unlock()
		close(acBlocked)
	}()
	select {
	case <-acBlocked:
		t.Fatal("class {a,c} did not block behind held class {a}")
	case <-time.After(30 * time.Millisecond):
	}

	globalDone := make(chan struct{})
	go func() {
		g := s.LockClass(nil, true)
		g.Unlock()
		close(globalDone)
	}()
	select {
	case <-globalDone:
		t.Fatal("global ticket did not block behind held class {a}")
	case <-time.After(30 * time.Millisecond):
	}

	a.Unlock()
	<-acBlocked
	<-globalDone
}

// TestSequencerTxFootprintAccumulates: a transaction's commit footprint is
// the union of its writes' tables (sorted), peeking leaves it in place, and
// ForgetTx — what the demarcation path calls after peeking — clears it.
func TestSequencerTxFootprintAccumulates(t *testing.T) {
	s := NewScheduler(1, ResponseAll, true)
	s.NoteTxWrite(42, []string{"c", "b"}, false)
	s.NoteTxWrite(42, []string{"b", "a"}, false)
	for i := 0; i < 2; i++ {
		tables, global := s.PeekTxFootprint(42)
		if global || fmt.Sprint(tables) != "[a b c]" {
			t.Fatalf("peek %d: footprint = %v global=%v, want [a b c] false", i, tables, global)
		}
	}
	if !s.TxActive(42) {
		t.Fatal("peeking cleared the footprint")
	}
	s.ForgetTx(42)
	if tables, global := s.PeekTxFootprint(42); len(tables) != 0 || global || s.TxActive(42) {
		t.Fatalf("ForgetTx left %v global=%v", tables, global)
	}
	s.NoteTxWrite(7, []string{"a"}, true)
	if _, global := s.PeekTxFootprint(7); !global {
		t.Fatal("global write did not mark the transaction footprint global")
	}
	if s.ForgetTx(7); s.AnyTxActive() {
		t.Fatal("footprints remain after every transaction was forgotten")
	}
}

// TestReplicaConsistencyCrashMidTransaction is the replica-consistency
// property under failure: the same randomized mixed workload, but one
// backend crashes at its second in-transaction commit — the scripted
// crash-mid-transaction fault — and is then healed and automatically
// re-integrated from the genesis backup while traffic continues. At the
// end, the survivors must be byte-identical (the crash-consistent disable
// dropped the whole backend, never a prefix of a transaction) and the
// re-integrated backend must have converged to the same bytes.
func TestReplicaConsistencyCrashMidTransaction(t *testing.T) {
	const (
		nBackends = 3
		nTables   = 4
		nWriters  = 6
		nOps      = 30
		seedRows  = 8
	)
	v := NewVirtualDatabase(VDBConfig{
		Name:        "crash",
		ParallelTx:  true,
		RecoveryLog: recovery.NewMemoryLog(),
		Health: HealthConfig{
			ProbeInterval:         5 * time.Millisecond,
			AutoReintegrate:       true,
			ReintegrateBackoff:    5 * time.Millisecond,
			ReintegrateBackoffCap: 50 * time.Millisecond,
			ReintegrateAttempts:   -1, // the test heals the fault; keep retrying until then
		},
	})
	t.Cleanup(v.Close)
	engines := make([]*sqlengine.Engine, nBackends)
	backends := make([]*backend.Backend, nBackends)
	for i := range engines {
		e := sqlengine.New(fmt.Sprintf("db%d", i), sqlengine.WithLockTimeout(30*time.Second))
		s := e.NewSession()
		for ti := 0; ti < nTables; ti++ {
			if _, err := s.ExecSQL(fmt.Sprintf("CREATE TABLE t%d (id INTEGER PRIMARY KEY, v INTEGER)", ti)); err != nil {
				t.Fatalf("seed: %v", err)
			}
			for r := 0; r < seedRows; r++ {
				if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, 0)", ti, r)); err != nil {
					t.Fatalf("seed: %v", err)
				}
			}
		}
		s.Close()
		engines[i] = e
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		t.Cleanup(b.Close)
		backends[i] = b
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.BackupBackend("db0", "genesis"); err != nil {
		t.Fatalf("genesis backup: %v", err)
	}

	// The scripted fault: db2 goes dark when it executes its second
	// transactional commit. Earlier writes of that transaction have applied
	// on db2; the disable teardown must roll them back, not leave a prefix.
	plan := backend.NewFaultPlan(backend.CrashOnCommit(2, nil))
	backends[2].SetFaultPlan(plan)

	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*977 + 13))
			s, err := v.NewSession("user", "pw")
			if err != nil {
				t.Errorf("session: %v", err)
				return
			}
			defer s.Close()
			op := func(sql string) {
				// Errors are tolerated: a write racing the crash window can
				// fail everywhere at once. Divergence is what the final dump
				// comparison catches.
				_, _ = s.Exec(sql, nil)
			}
			for i := 0; i < nOps; i++ {
				tbl := rng.Intn(nTables)
				switch rng.Intn(4) {
				case 0:
					op(fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, %d)",
						tbl, 1000+w*nOps+i, rng.Intn(100)))
				case 1:
					lo, hi := tbl, (tbl+1)%nTables
					if lo > hi {
						lo, hi = hi, lo
					}
					op("BEGIN")
					op(fmt.Sprintf("UPDATE t%d SET v = v + 1 WHERE id = %d", lo, rng.Intn(seedRows)))
					op(fmt.Sprintf("UPDATE t%d SET v = %d WHERE id = %d", hi, rng.Intn(100), rng.Intn(seedRows)))
					op("COMMIT")
					if s.InTransaction() {
						op("ROLLBACK")
					}
				default:
					op(fmt.Sprintf("UPDATE t%d SET v = %d WHERE id = %d",
						tbl, rng.Intn(100), rng.Intn(seedRows)))
				}
			}
		}(w)
	}
	wg.Wait()

	if backends[2].Enabled() && !plan.Down() {
		t.Fatal("fault never fired: the workload issued fewer than two transactional commits on db2")
	}

	// Heal and wait for the supervisor to re-integrate db2 under no load
	// (the writers are done; re-integration under load is the chaos
	// package's job).
	plan.Heal()
	deadline := time.Now().Add(15 * time.Second)
	for v.BackendHealth("db2") != StatusHealthy || !backends[2].Enabled() {
		if time.Now().After(deadline) {
			t.Fatalf("db2 never re-integrated; health=%s", v.BackendHealth("db2"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	for ti := 0; ti < nTables; ti++ {
		table := fmt.Sprintf("t%d", ti)
		want := sortedTableDump(t, engines[0], table)
		for bi := 1; bi < nBackends; bi++ {
			if got := sortedTableDump(t, engines[bi], table); got != want {
				t.Errorf("table %s differs between db0 and db%d:\n--- db0:\n%s\n--- db%d:\n%s",
					table, bi, want, bi, got)
			}
		}
	}
}
