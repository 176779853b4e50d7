package controller

// Dynamic placement tests (PR 10): AddTableHost bootstraps and flips (that it
// never serves a read from the not-yet-caught-up copy is the copy-to-exact
// contract, exact_test.go), RemoveTableHost flips
// routing away before dropping and refuses (typed) to drop a table's last
// enabled host, moves stay correct under randomized live traffic, and the
// load-driven policy replicates hot tables and sheds cold replicas on its own.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// TestPlacementAddHostBootstrapAndFlip covers the logged AddTableHost path:
// the new copy is byte-identical to the donor, subsequent writes include the
// new host, reads are allowed to route to it, and the already-hosted /
// unknown-backend / unknown-table edges report errors.
func TestPlacementAddHostBootstrapAndFlip(t *testing.T) {
	placement := map[string][]int{"a": {0}, "b": {1}}
	v, engines := mkPartialVDB(t, 3, placement, 5, recovery.NewMemoryLog())
	s := openSession(t, v)

	exec(t, s, "UPDATE a SET v = 7 WHERE id = 0")
	exec(t, s, "INSERT INTO a (id, v) VALUES (100, 1)")

	if err := v.AddTableHost("a", "db2"); err != nil {
		t.Fatalf("AddTableHost: %v", err)
	}
	pl := v.Replication()
	if !pl.Hosted("a", "db2") {
		t.Fatal("db2 not hosted after AddTableHost")
	}
	if want, got := sortedTableDump(t, engines[0], "a"), sortedTableDump(t, engines[2], "a"); got != want {
		t.Fatalf("bootstrapped copy diverged:\n--- donor:\n%s\n--- db2:\n%s", want, got)
	}
	if got := v.PlacementMoves(); got != 1 {
		t.Fatalf("PlacementMoves = %d, want 1", got)
	}

	// Post-flip writes reach the new host.
	exec(t, s, "INSERT INTO a (id, v) VALUES (200, 2)")
	if got := countOn(t, engines[2], "SELECT COUNT(*) FROM a WHERE id = 200"); got != 1 {
		t.Fatalf("post-flip write missed db2: %d rows", got)
	}

	// Post-flip reads may choose the new host: with two candidates and
	// round-robin tie-breaking, a burst of reads must land some on db2.
	b2, err := v.Backend("db2")
	if err != nil {
		t.Fatal(err)
	}
	before := b2.Ops()
	for i := 0; i < 20; i++ {
		exec(t, s, "SELECT COUNT(*) FROM a")
	}
	if b2.Ops() == before {
		t.Fatal("no read routed to the newly added host")
	}

	if err := v.AddTableHost("a", "db2"); !errors.Is(err, ErrAlreadyHosted) {
		t.Fatalf("re-add: got %v, want ErrAlreadyHosted", err)
	}
	if err := v.AddTableHost("a", "nope"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// A table unknown to the placement map is implicitly hosted everywhere.
	if err := v.AddTableHost("zzz", "db2"); !errors.Is(err, ErrAlreadyHosted) {
		t.Fatalf("unknown table: got %v, want ErrAlreadyHosted", err)
	}
}

// TestPlacementRemoveHostAndLastHostGuard covers the flip-away ordering and
// the typed validation error: the dropped copy disappears, routing excludes
// the ex-host, and removing the last (or last *enabled*) host is refused
// with *balancer.LastHostError.
func TestPlacementRemoveHostAndLastHostGuard(t *testing.T) {
	placement := map[string][]int{"a": {0, 1}, "b": {1}, "c": {0, 1}}
	v, engines := mkPartialVDB(t, 2, placement, 4, nil)
	s := openSession(t, v)

	if err := v.RemoveTableHost("a", "db0"); err != nil {
		t.Fatalf("RemoveTableHost: %v", err)
	}
	pl := v.Replication()
	if pl.Hosted("a", "db0") {
		t.Fatal("db0 still hosted after removal")
	}
	if hasTable(engines[0], "a") {
		t.Fatal("db0 still holds the dropped copy")
	}
	exec(t, s, "INSERT INTO a (id, v) VALUES (50, 5)")
	if got := countOn(t, engines[1], "SELECT COUNT(*) FROM a WHERE id = 50"); got != 1 {
		t.Fatalf("surviving host missed the write: %d rows", got)
	}

	var lh *balancer.LastHostError
	if err := v.RemoveTableHost("a", "db1"); !errors.As(err, &lh) {
		t.Fatalf("last host removal: got %v, want LastHostError", err)
	} else if lh.Table != "a" || lh.Host != "db1" {
		t.Fatalf("LastHostError = %+v", lh)
	}
	if err := v.RemoveTableHost("b", "db0"); err == nil {
		t.Fatal("removal from a non-host accepted")
	}

	// Stricter than the balancer's own rule: the remaining host must be
	// *enabled* for the removal to proceed.
	v.DisableBackend("db1")
	if err := v.RemoveTableHost("c", "db0"); !errors.As(err, &lh) {
		t.Fatalf("removal with disabled survivor: got %v, want LastHostError", err)
	}

	// Moves need an explicit placement.
	full := NewVirtualDatabase(VDBConfig{Name: "full-moves"})
	t.Cleanup(full.Close)
	if err := full.AddTableHost("a", "db0"); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("full replication: got %v, want ErrNoPlacement", err)
	}
	if err := full.RemoveTableHost("a", "db0"); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("full replication: got %v, want ErrNoPlacement", err)
	}
}

// TestPlacementRemoveHostUnderLiveReads keeps slow reads in flight on the
// host being removed: the drop must wait out every read routed under the old
// placement, so no read errors or observes the table vanishing.
func TestPlacementRemoveHostUnderLiveReads(t *testing.T) {
	const seedRows = 6
	placement := map[string][]int{"a": {0, 1}}
	v, engines := mkPartialVDB(t, 2, placement, seedRows, nil)
	b0, err := v.Backend("db0")
	if err != nil {
		t.Fatal(err)
	}
	b0.SetFaultPlan(backend.NewFaultPlan(backend.Slow(backend.OpRead, 20*time.Millisecond)))

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var nReads atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			s, err := v.NewSession("user", "pw")
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Exec("SELECT COUNT(*) FROM a", nil)
				if err != nil {
					t.Errorf("read during removal: %v", err)
					return
				}
				if n := res.Rows[0][0].I; n != seedRows {
					t.Errorf("read lost rows during removal: %d", n)
					return
				}
				nReads.Add(1)
			}
		}()
	}

	time.Sleep(30 * time.Millisecond) // reads in flight on db0
	if err := v.RemoveTableHost("a", "db0"); err != nil {
		t.Fatalf("RemoveTableHost: %v", err)
	}
	// Keep reading after the flip: everything routes to db1 now.
	time.Sleep(60 * time.Millisecond)
	close(stop)
	readers.Wait()

	if hasTable(engines[0], "a") {
		t.Fatal("db0 still holds the removed copy")
	}
	if nReads.Load() == 0 {
		t.Fatal("no reads completed — the test exercised nothing")
	}
}

// TestReplicaConsistencyUnderPlacementChanges is the acceptance property
// test: randomized concurrent writers run against a partial placement while
// a mover performs random AddTableHost/RemoveTableHost moves on the non-
// oracle backends. Afterwards the live placement must validate and every
// current host must be byte-identical to the full-copy oracle on its hosted
// tables — and hold nothing it no longer hosts.
func TestReplicaConsistencyUnderPlacementChanges(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		runPlacementChangeConsistency(t, seed)
	}
}

func runPlacementChangeConsistency(t *testing.T, seed int64) {
	const (
		nHosts   = 3 // db0..db2 are move targets; db3 is the untouched oracle
		nTables  = 4
		nWriters = 4
		nOps     = 30
		seedRows = 8
	)
	rng := rand.New(rand.NewSource(seed))
	placement := make(map[string][]int, nTables)
	for ti := 0; ti < nTables; ti++ {
		var hosts []int
		for len(hosts) == 0 {
			for b := 0; b < nHosts; b++ {
				if rng.Intn(2) == 1 {
					hosts = append(hosts, b)
				}
			}
		}
		placement[fmt.Sprintf("t%d", ti)] = append(hosts, nHosts)
	}
	v, engines := mkPartialVDB(t, nHosts+1, placement, seedRows, recovery.NewMemoryLog())

	var wg sync.WaitGroup
	writersDone := make(chan struct{})
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
				tbl := (w + rng.Intn(3)) % nTables
				switch rng.Intn(5) {
				case 0:
					_, err = s.Exec(fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, %d)",
						tbl, 1000+w*nOps+i, rng.Intn(100)), nil)
				case 1:
					_, err = s.Exec(fmt.Sprintf("DELETE FROM t%d WHERE id = %d", tbl, rng.Intn(seedRows)), nil)
				case 2:
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

	// The mover keeps flipping placement under the writers' feet. Individual
	// moves may be legitimately refused (already hosted, last enabled host,
	// quiesce timeout) — correctness is judged by the final comparison.
	var moverWG sync.WaitGroup
	moverWG.Add(1)
	go func() {
		defer moverWG.Done()
		rng := rand.New(rand.NewSource(seed * 77))
		pl := v.Replication()
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			tbl := fmt.Sprintf("t%d", rng.Intn(nTables))
			host := fmt.Sprintf("db%d", rng.Intn(nHosts))
			if pl.Hosted(tbl, host) {
				_ = v.RemoveTableHost(tbl, host)
			} else {
				_ = v.AddTableHost(tbl, host)
			}
		}
	}()

	wg.Wait()
	close(writersDone)
	moverWG.Wait()

	if err := v.ValidatePlacement(); err != nil {
		t.Fatalf("seed %d: placement did not converge valid: %v", seed, err)
	}
	oracle := engines[nHosts]
	for ti := 0; ti < nTables; ti++ {
		tbl := fmt.Sprintf("t%d", ti)
		want := sortedTableDump(t, oracle, tbl)
		hosted := make(map[string]bool)
		for _, h := range v.Replication().Hosts(tbl) {
			hosted[h] = true
		}
		if !hosted[fmt.Sprintf("db%d", nHosts)] {
			t.Fatalf("seed %d: the oracle lost %s", seed, tbl)
		}
		for bi := 0; bi < nHosts; bi++ {
			name := fmt.Sprintf("db%d", bi)
			if hosted[name] {
				if got := sortedTableDump(t, engines[bi], tbl); got != want {
					t.Fatalf("seed %d: %s diverged from oracle on hosted %s:\n--- oracle:\n%s\n--- %s:\n%s",
						seed, name, tbl, want, name, got)
				}
			} else if hasTable(engines[bi], tbl) {
				t.Fatalf("seed %d: %s still holds %s it no longer hosts", seed, name, tbl)
			}
		}
	}
	if v.PlacementMoves() == 0 {
		t.Fatalf("seed %d: no move completed — the test exercised nothing", seed)
	}
}

// TestPlacementPolicyHotAndCold drives the load policy end to end: hammering
// one table past HotTableThreshold grows it a replica; letting it go cold
// sheds the surplus copy again.
func TestPlacementPolicyHotAndCold(t *testing.T) {
	e0 := seedPartialEngine(t, "db0", []string{"hot"}, 4)
	e1 := sqlengine.New("db1", sqlengine.WithLockTimeout(30*time.Second))
	v := NewVirtualDatabase(VDBConfig{
		Name:        "policy",
		Replication: balancer.NewPartialReplication(nil),
		ParallelTx:  true,
		RecoveryLog: recovery.NewMemoryLog(),
		Placement: PlacementPolicy{
			HotTableThreshold:  30,
			ColdTableThreshold: 5,
			ObserveWindow:      25 * time.Millisecond,
		},
	})
	t.Cleanup(v.Close)
	for i, e := range []*sqlengine.Engine{e0, e1} {
		var tables []string
		if i == 0 {
			tables = []string{"hot"}
		}
		b := backend.New(backend.Config{
			Name:   fmt.Sprintf("db%d", i),
			Driver: &backend.EngineDriver{Engine: e},
			Tables: tables,
		})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.ValidatePlacement(); err != nil {
		t.Fatal(err)
	}
	pl := v.Replication()
	s := openSession(t, v)

	// Phase 1: hot. Hammer reads until the policy replicates onto db1.
	deadline := time.Now().Add(10 * time.Second)
	for !pl.Hosted("hot", "db1") {
		if time.Now().After(deadline) {
			t.Fatal("policy never replicated the hot table")
		}
		exec(t, s, "SELECT COUNT(*) FROM hot")
	}
	// addHost counts the move when it returns, just after the flip the
	// loop above observed.
	for v.PlacementMoves() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("policy move not counted")
		}
		runtime.Gosched()
	}

	// Phase 2: cold. With reads stopped the table drops under the cold
	// threshold and one replica is shed.
	deadline = time.Now().Add(10 * time.Second)
	for len(v.Replication().Hosts("hot")) > 1 {
		if time.Now().After(deadline) {
			t.Fatal("policy never shed the cold replica")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
