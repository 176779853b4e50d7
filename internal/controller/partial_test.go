package controller

// RAIDb-2 partial replication tests: placement-aware routing, hosted-subset
// replica consistency under concurrent writes, and hosted-only recovery
// streams. The oracle pattern: one backend hosts every table, so each
// partial backend's hosted tables can be compared byte-for-byte against the
// full copy.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// partialTableSchema is the common test table shape.
const partialTableSchema = " (id INTEGER PRIMARY KEY, v INTEGER)"

// hostedTablesOf lists (sorted) the tables backend index bi hosts under a
// table -> backend-indices placement.
func hostedTablesOf(placement map[string][]int, bi int) []string {
	var out []string
	for tbl, hosts := range placement {
		for _, h := range hosts {
			if h == bi {
				out = append(out, tbl)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// seedPartialEngine creates an engine holding exactly the given tables,
// each with rows (0..seedRows-1, 0).
func seedPartialEngine(t testing.TB, name string, tables []string, seedRows int) *sqlengine.Engine {
	t.Helper()
	e := sqlengine.New(name, sqlengine.WithLockTimeout(30*time.Second))
	s := e.NewSession()
	defer s.Close()
	for _, tbl := range tables {
		if _, err := s.ExecSQL("CREATE TABLE " + tbl + partialTableSchema); err != nil {
			t.Fatalf("seed %s: %v", tbl, err)
		}
		for r := 0; r < seedRows; r++ {
			if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO %s (id, v) VALUES (%d, 0)", tbl, r)); err != nil {
				t.Fatalf("seed %s: %v", tbl, err)
			}
		}
	}
	return e
}

// mkPartialVDB builds a partially replicated vdb over n engines: placement
// maps each table to the backend indices hosting it, every backend is
// seeded with exactly its hosted tables and declares them in its config.
func mkPartialVDB(t testing.TB, n int, placement map[string][]int, seedRows int, log recovery.Log) (*VirtualDatabase, []*sqlengine.Engine) {
	t.Helper()
	v := NewVirtualDatabase(VDBConfig{
		Name:        "partial",
		Replication: balancer.NewPartialReplication(nil),
		ParallelTx:  true,
		RecoveryLog: log,
	})
	t.Cleanup(v.Close)
	engines := make([]*sqlengine.Engine, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("db%d", i)
		hosted := hostedTablesOf(placement, i)
		e := seedPartialEngine(t, name, hosted, seedRows)
		engines[i] = e
		b := backend.New(backend.Config{
			Name:   name,
			Driver: &backend.EngineDriver{Engine: e},
			Tables: hosted,
		})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.ValidatePlacement(); err != nil {
		t.Fatal(err)
	}
	return v, engines
}

// hasTable reports whether the engine contains the table.
func hasTable(e *sqlengine.Engine, table string) bool {
	_, _, err := e.SnapshotTable(table)
	return err == nil
}

// TestReplicaConsistencyPartialPlacement is the placement-aware extension
// of the replica-consistency property test: with every table hosted by a
// random subset of backends plus a full-copy oracle, randomized concurrent
// writers (auto-commit updates, inserts, deletes, cross-table transactions)
// must leave every backend byte-identical to the oracle restricted to its
// hosted tables — and hosting nothing it did not declare.
func TestReplicaConsistencyPartialPlacement(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		runPartialReplicaConsistency(t, seed)
	}
}

func runPartialReplicaConsistency(t *testing.T, seed int64) {
	const (
		nHosts   = 3 // db0..db2 host random subsets; db3 is the oracle
		nTables  = 4
		nWriters = 6
		nOps     = 40
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
		placement[fmt.Sprintf("t%d", ti)] = append(hosts, nHosts) // oracle hosts all
	}
	v, engines := mkPartialVDB(t, nHosts+1, placement, seedRows, nil)

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
				tbl := (w + rng.Intn(3)) % nTables
				switch rng.Intn(5) {
				case 0:
					_, err = s.Exec(fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, %d)",
						tbl, 1000+w*nOps+i, rng.Intn(100)), nil)
				case 1:
					_, err = s.Exec(fmt.Sprintf("DELETE FROM t%d WHERE id = %d", tbl, rng.Intn(seedRows)), nil)
				case 2:
					// A cross-table transaction writes two conflict classes
					// hosted on (generally) different backend subsets; its
					// commit must order against both on every host. Tables in
					// index order: client-side deadlock avoidance.
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

	oracle := engines[nHosts]
	for tbl, hosts := range placement {
		want := sortedTableDump(t, oracle, tbl)
		hostSet := make(map[int]bool, len(hosts))
		for _, h := range hosts {
			hostSet[h] = true
		}
		for bi := 0; bi < nHosts; bi++ {
			if hostSet[bi] {
				if got := sortedTableDump(t, engines[bi], tbl); got != want {
					t.Fatalf("seed %d: db%d diverged from oracle on hosted %s:\n--- oracle:\n%s\n--- db%d:\n%s",
						seed, bi, tbl, want, bi, got)
				}
			} else if hasTable(engines[bi], tbl) {
				t.Fatalf("seed %d: db%d holds %s it does not host", seed, bi, tbl)
			}
		}
	}
}

// TestPartialRoutingFootprintAndNoHost pins the deterministic routing
// contract: reads route only to backends hosting the statement's whole
// footprint, cross-partition joins and fully-down tables fail with the
// typed NoHostError (which still matches ErrNoBackend), and writes land on
// exactly the hosting backends.
func TestPartialRoutingFootprintAndNoHost(t *testing.T) {
	placement := map[string][]int{"a": {0}, "b": {0, 1}, "c": {1}}
	v, engines := mkPartialVDB(t, 2, placement, 4, nil)
	s := openSession(t, v)

	// Single-table reads and a join with a common host (a⋈b on db0) work.
	for _, q := range []string{
		"SELECT COUNT(*) FROM a",
		"SELECT COUNT(*) FROM c",
		"SELECT a.id FROM a, b WHERE a.id = b.id",
	} {
		if _, err := s.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	// A join across tables placed on disjoint backends has no host.
	_, err := s.Exec("SELECT a.id FROM a, c WHERE a.id = c.id", nil)
	var nh *balancer.NoHostError
	if !errors.As(err, &nh) {
		t.Fatalf("cross-partition join: got %v, want NoHostError", err)
	}
	if !errors.Is(err, balancer.ErrNoBackend) {
		t.Fatalf("NoHostError must match ErrNoBackend, got %v", err)
	}
	sort.Strings(nh.Tables)
	if fmt.Sprint(nh.Tables) != "[a c]" {
		t.Fatalf("NoHostError footprint = %v, want [a c]", nh.Tables)
	}

	// A write reaches exactly the hosting backends.
	if _, err := s.Exec("INSERT INTO a (id, v) VALUES (100, 1)", nil); err != nil {
		t.Fatal(err)
	}
	if got := countOn(t, engines[0], "SELECT COUNT(*) FROM a WHERE id = 100"); got != 1 {
		t.Fatalf("host db0 missed the write: %d rows", got)
	}
	if hasTable(engines[1], "a") {
		t.Fatal("db1 does not host a but holds it")
	}

	// With c's only host down, reads and writes on c degrade to the typed
	// no-host error; tables hosted elsewhere keep working.
	v.DisableBackend("db1")
	if _, err := s.Exec("SELECT COUNT(*) FROM c", nil); !errors.As(err, &nh) {
		t.Fatalf("read of down-hosted c: got %v, want NoHostError", err)
	}
	_, err = s.Exec("UPDATE c SET v = 1 WHERE id = 0", nil)
	if !errors.As(err, &nh) {
		t.Fatalf("write to down-hosted c: got %v, want NoHostError", err)
	}
	if !errors.Is(err, ErrNoWriteTarget) {
		t.Fatalf("write no-host must also match ErrNoWriteTarget, got %v", err)
	}
	if _, err := s.Exec("SELECT COUNT(*) FROM a", nil); err != nil {
		t.Fatalf("a should still be served by db0: %v", err)
	}
}

// TestPartialRoutingFuzzedStream is the routing property test: a fuzzed
// stream of SELECTs, joins, UPDATE/DELETE/INSERTs and DDL over a random
// placement must never dispatch a statement to a backend not hosting its
// full footprint (a misrouted statement errors on the missing table, which
// disables the backend — so "all backends still enabled" is the proof), and
// every write must reach every hosting backend exactly once (PK-unique
// inserts make a duplicate application fail, and the final model comparison
// catches a lost one).
func TestPartialRoutingFuzzedStream(t *testing.T) {
	for _, seed := range []int64{5, 17} {
		runPartialRoutingFuzz(t, seed)
	}
}

func runPartialRoutingFuzz(t *testing.T, seed int64) {
	const (
		nHosts   = 3
		nTables  = 4
		nOps     = 300
		seedRows = 4
	)
	rng := rand.New(rand.NewSource(seed))
	tables := make([]string, nTables)
	placement := make(map[string][]int, nTables)
	for ti := 0; ti < nTables; ti++ {
		tbl := fmt.Sprintf("t%d", ti)
		tables[ti] = tbl
		var hosts []int
		for len(hosts) == 0 {
			for b := 0; b < nHosts; b++ {
				if rng.Intn(2) == 1 {
					hosts = append(hosts, b)
				}
			}
		}
		placement[tbl] = hosts
	}
	v, engines := mkPartialVDB(t, nHosts, placement, seedRows, nil)
	s := openSession(t, v)

	commonHost := func(a, b string) bool {
		set := make(map[int]bool)
		for _, h := range placement[a] {
			set[h] = true
		}
		for _, h := range placement[b] {
			if set[h] {
				return true
			}
		}
		return false
	}

	// model[tbl] is the set of live row ids (value checks are covered by
	// the cross-host dump comparison below).
	model := make(map[string]map[int]bool, nTables)
	for _, tbl := range tables {
		ids := make(map[int]bool, seedRows)
		for r := 0; r < seedRows; r++ {
			ids[r] = true
		}
		model[tbl] = ids
	}
	nextID := 1000

	for i := 0; i < nOps; i++ {
		tbl := tables[rng.Intn(nTables)]
		switch rng.Intn(8) {
		case 0: // single-table read: always servable (≥1 host, all enabled)
			if _, err := s.Exec("SELECT COUNT(*) FROM "+tbl, nil); err != nil {
				t.Fatalf("op %d: read %s: %v", i, tbl, err)
			}
		case 1: // join: servable iff some backend hosts both tables
			other := tables[rng.Intn(nTables)]
			_, err := s.Exec(fmt.Sprintf("SELECT %s.id FROM %s, %s WHERE %s.id = %s.id",
				tbl, tbl, other, tbl, other), nil)
			if tbl == other || commonHost(tbl, other) {
				if err != nil {
					t.Fatalf("op %d: join %s⋈%s should be served: %v", i, tbl, other, err)
				}
			} else {
				var nh *balancer.NoHostError
				if !errors.As(err, &nh) {
					t.Fatalf("op %d: join %s⋈%s across partitions: got %v, want NoHostError", i, tbl, other, err)
				}
			}
		case 2: // insert with a globally unique id
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO %s (id, v) VALUES (%d, %d)",
				tbl, nextID, rng.Intn(100)), nil); err != nil {
				t.Fatalf("op %d: insert %s: %v", i, tbl, err)
			}
			model[tbl][nextID] = true
			nextID++
		case 3: // delete a random live id
			for id := range model[tbl] {
				if _, err := s.Exec(fmt.Sprintf("DELETE FROM %s WHERE id = %d", tbl, id), nil); err != nil {
					t.Fatalf("op %d: delete %s: %v", i, tbl, err)
				}
				delete(model[tbl], id)
				break
			}
		case 4: // DDL cycle: drop and re-create a declared table. Placement
			// is pinned, so the re-created table must return to its declared
			// hosts — and only them.
			if _, err := s.Exec("DROP TABLE "+tbl, nil); err != nil {
				t.Fatalf("op %d: drop %s: %v", i, tbl, err)
			}
			if _, err := s.Exec("CREATE TABLE "+tbl+partialTableSchema, nil); err != nil {
				t.Fatalf("op %d: re-create %s: %v", i, tbl, err)
			}
			model[tbl] = make(map[int]bool)
		default: // update
			if _, err := s.Exec(fmt.Sprintf("UPDATE %s SET v = %d WHERE id >= 0", tbl, rng.Intn(100)), nil); err != nil {
				t.Fatalf("op %d: update %s: %v", i, tbl, err)
			}
		}
	}

	for name, state := range map[string]bool{"db0": true, "db1": true, "db2": true} {
		b, err := v.Backend(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Enabled() != state {
			t.Fatalf("seed %d: %s was disabled — a statement was dispatched to a backend missing its footprint", seed, name)
		}
	}
	for _, tbl := range tables {
		hosts := placement[tbl]
		ref := sortedTableDump(t, engines[hosts[0]], tbl)
		for _, h := range hosts[1:] {
			if got := sortedTableDump(t, engines[h], tbl); got != ref {
				t.Fatalf("seed %d: hosts of %s diverged:\n--- db%d:\n%s\n--- db%d:\n%s",
					seed, tbl, hosts[0], ref, h, got)
			}
		}
		if got := countOn(t, engines[hosts[0]], "SELECT COUNT(*) FROM "+tbl); got != int64(len(model[tbl])) {
			t.Fatalf("seed %d: %s has %d rows, model says %d — a write was lost or duplicated",
				seed, tbl, got, len(model[tbl]))
		}
		hostSet := make(map[int]bool, len(hosts))
		for _, h := range hosts {
			hostSet[h] = true
		}
		for bi := range engines {
			if !hostSet[bi] && hasTable(engines[bi], tbl) {
				t.Fatalf("seed %d: db%d holds %s it does not host", seed, bi, tbl)
			}
		}
	}
}

// TestRecoveryStreamHostedSubset asserts the per-backend recovery stream
// contract: the shared log records every write once with its footprint
// (DDL included, Global with tables), and a backend's replay stream — the
// hosted-filtered view — reproduces exactly its hosted tables. Replaying
// db0's stream onto a fresh engine must succeed without ever touching the
// unhosted table (whose entries would fail on the missing table) and land
// byte-identical to db0.
func TestRecoveryStreamHostedSubset(t *testing.T) {
	log := recovery.NewMemoryLog()
	placement := map[string][]int{"a": {0, 1}, "b": {1}}
	v, engines := mkPartialVDB(t, 2, placement, 2, log)
	s := openSession(t, v)

	exec(t, s, "UPDATE a SET v = 7 WHERE id = 0")
	exec(t, s, "INSERT INTO b (id, v) VALUES (10, 1)")
	exec(t, s, "BEGIN")
	exec(t, s, "UPDATE a SET v = 9 WHERE id = 1")
	exec(t, s, "COMMIT")
	// DDL through the vdb: undeclared table, replicated everywhere.
	exec(t, s, "CREATE TABLE d"+partialTableSchema)
	exec(t, s, "INSERT INTO d (id, v) VALUES (1, 5)")
	exec(t, s, "UPDATE b SET v = 2 WHERE id = 10")

	// The DDL entry must carry its footprint despite being global.
	entries, err := log.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	foundDDL := false
	for _, e := range entries {
		if e.Class == recovery.ClassWrite && e.SQL == "CREATE TABLE d"+partialTableSchema {
			foundDDL = true
			if !e.Global || len(e.Tables) != 1 || e.Tables[0] != "d" {
				t.Fatalf("DDL entry: Global=%v Tables=%v, want Global=true Tables=[d]", e.Global, e.Tables)
			}
		}
	}
	if !foundDDL {
		t.Fatal("CREATE TABLE d not found in the recovery log")
	}

	// Replay db0's hosted stream from the log's origin onto a fresh engine
	// seeded like db0 was: must apply only a and d entries.
	pl := v.Replication()
	fresh := seedPartialEngine(t, "replay0", []string{"a"}, 2)
	fb := backend.New(backend.Config{Name: "replay0", Driver: &backend.EngineDriver{Engine: fresh}})
	t.Cleanup(fb.Close)
	fb.Enable()
	_, _, _, err = recovery.ReplayPassHosted(log, 0, fb, 1,
		func(table string) bool { return pl.Hosted(table, "db0") }, nil)
	if err != nil {
		t.Fatalf("hosted replay dispatched an unhosted entry: %v", err)
	}
	for _, tbl := range []string{"a", "d"} {
		want := sortedTableDump(t, engines[0], tbl)
		if got := sortedTableDump(t, fresh, tbl); got != want {
			t.Fatalf("replayed stream diverged on %s:\n--- db0:\n%s\n--- replay:\n%s", tbl, want, got)
		}
	}
	if hasTable(fresh, "b") {
		t.Fatal("db0's recovery stream contained entries of unhosted table b")
	}
}

// TestPlacementValidation covers the configuration guards: a table hosted
// by nobody, a host naming no backend, and declared tables on a
// fully-replicated virtual database are all rejected.
func TestPlacementValidation(t *testing.T) {
	repl := balancer.NewPartialReplication(map[string][]string{"x": {"ghost"}})
	if err := repl.Validate([]string{"db0"}); err == nil {
		t.Fatal("unknown host name passed validation")
	}
	repl = balancer.NewPartialReplication(map[string][]string{"x": {}})
	if err := repl.Validate([]string{"db0"}); err == nil {
		t.Fatal("hostless table passed validation")
	}
	repl = balancer.NewPartialReplication(map[string][]string{"x": {"db0"}})
	if err := repl.Validate([]string{"db0"}); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}

	v := NewVirtualDatabase(VDBConfig{Name: "full"})
	t.Cleanup(v.Close)
	e := sqlengine.New("dbf")
	b := backend.New(backend.Config{
		Name:   "dbf",
		Driver: &backend.EngineDriver{Engine: e},
		Tables: []string{"x"},
	})
	t.Cleanup(b.Close)
	if err := v.AddBackend(b); err == nil {
		t.Fatal("declared tables accepted under full replication")
	}
}
