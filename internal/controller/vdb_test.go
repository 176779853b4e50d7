package controller

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/cache"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlval"
)

// mkVDB builds a virtual database over n fresh engine backends, each seeded
// with the same schema.
func mkVDB(t *testing.T, n int, cfg VDBConfig, seed ...string) (*VirtualDatabase, []*sqlengine.Engine) {
	t.Helper()
	cfg.Name = "testdb"
	v := NewVirtualDatabase(cfg)
	engines := make([]*sqlengine.Engine, n)
	for i := 0; i < n; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
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

var seedSchema = []string{
	"CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_title VARCHAR, i_cost FLOAT)",
	"INSERT INTO item (i_id, i_title, i_cost) VALUES (1, 'a', 10), (2, 'b', 20), (3, 'c', 30)",
}

func openSession(t *testing.T, v *VirtualDatabase) *Session {
	t.Helper()
	s, err := v.NewSession("user", "pw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func exec(t *testing.T, s *Session, sql string) *backend.Result {
	t.Helper()
	res, err := s.Exec(sql, nil)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func countOn(t *testing.T, e *sqlengine.Engine, sql string) int64 {
	t.Helper()
	s := e.NewSession()
	defer s.Close()
	res, err := s.ExecSQL(sql)
	if err != nil {
		t.Fatalf("count on engine: %v", err)
	}
	return res.Rows[0][0].I
}

func TestReadOneWriteAll(t *testing.T) {
	v, engines := mkVDB(t, 3, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)

	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)")
	// Write must land on every backend.
	for i, e := range engines {
		if got := countOn(t, e, "SELECT COUNT(*) FROM item"); got != 4 {
			t.Errorf("backend %d rows = %d, want 4", i, got)
		}
	}
	res := exec(t, s, "SELECT COUNT(*) FROM item")
	if res.Rows[0][0].I != 4 {
		t.Errorf("read: %v", res.Rows[0][0])
	}
	st := v.StatsSnapshot()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestReadsSpreadAcrossBackends(t *testing.T) {
	v, _ := mkVDB(t, 3, VDBConfig{Balancer: &balancer.RoundRobin{}, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	for i := 0; i < 9; i++ {
		exec(t, s, "SELECT i_title FROM item WHERE i_id = 1")
	}
	for _, b := range v.Backends() {
		if b.Ops() != 3 {
			t.Errorf("backend %s ops = %d, want 3", b.Name(), b.Ops())
		}
	}
}

func TestTransactionCommitVisibleEverywhere(t *testing.T) {
	v, engines := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	exec(t, s, "BEGIN")
	if !s.InTransaction() {
		t.Fatal("not in transaction")
	}
	exec(t, s, "UPDATE item SET i_cost = 99 WHERE i_id = 1")
	// Read inside the transaction sees the uncommitted write.
	res := exec(t, s, "SELECT i_cost FROM item WHERE i_id = 1")
	if f, _ := res.Rows[0][0].AsFloat(); f != 99 {
		t.Errorf("in-tx read: %v", res.Rows[0][0])
	}
	exec(t, s, "COMMIT")
	if s.InTransaction() {
		t.Fatal("still in transaction")
	}
	for i, e := range engines {
		sess := e.NewSession()
		r, _ := sess.ExecSQL("SELECT i_cost FROM item WHERE i_id = 1")
		sess.Close()
		if f, _ := r.Rows[0][0].AsFloat(); f != 99 {
			t.Errorf("backend %d: %v", i, r.Rows[0][0])
		}
	}
}

func TestTransactionRollback(t *testing.T) {
	v, engines := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	exec(t, s, "BEGIN")
	exec(t, s, "DELETE FROM item")
	exec(t, s, "ROLLBACK")
	for i, e := range engines {
		if got := countOn(t, e, "SELECT COUNT(*) FROM item"); got != 3 {
			t.Errorf("backend %d after rollback: %d", i, got)
		}
	}
}

func TestLazyTransactionBegin(t *testing.T) {
	v, engines := mkVDB(t, 3, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	before := make([]int64, 3)
	for i, e := range engines {
		before[i] = e.StatsSnapshot().Transactions
	}
	exec(t, s, "BEGIN")
	// A read-only transaction starts a backend transaction only on the one
	// backend that serves the read (§2.4.4).
	exec(t, s, "SELECT COUNT(*) FROM item")
	exec(t, s, "COMMIT")
	started := 0
	for i, e := range engines {
		started += int(e.StatsSnapshot().Transactions - before[i])
	}
	if started != 1 {
		t.Errorf("backend transactions started = %d, want 1 (lazy begin)", started)
	}
}

func TestMacroRewritingKeepsReplicasIdentical(t *testing.T) {
	v, engines := mkVDB(t, 3, VDBConfig{ParallelTx: true},
		"CREATE TABLE o (id INTEGER, stamp TIMESTAMP, disc FLOAT)")
	s := openSession(t, v)
	exec(t, s, "INSERT INTO o (id, stamp, disc) VALUES (1, NOW(), RAND())")
	exec(t, s, "INSERT INTO o (id, stamp, disc) VALUES (2, NOW(), RAND())")

	var ref [][]sqlval.Value
	for i, e := range engines {
		sess := e.NewSession()
		r, err := sess.ExecSQL("SELECT stamp, disc FROM o ORDER BY id")
		sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = r.Rows
			continue
		}
		for j := range ref {
			for k := range ref[j] {
				if !sqlval.Equal(ref[j][k], r.Rows[j][k]) {
					t.Errorf("backend %d row %d col %d: %v != %v", i, j, k, r.Rows[j][k], ref[j][k])
				}
			}
		}
	}
}

func TestPartialReplicationRouting(t *testing.T) {
	// db0+db1 host order_line, all three host item.
	repl := balancer.NewPartialReplication(nil)
	cfg := VDBConfig{Replication: repl, ParallelTx: true}
	v := NewVirtualDatabase(cfg)
	engines := make([]*sqlengine.Engine, 3)
	for i := 0; i < 3; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		s := e.NewSession()
		s.ExecSQL("CREATE TABLE item (i_id INTEGER PRIMARY KEY, t VARCHAR)")
		if i < 2 {
			s.ExecSQL("CREATE TABLE order_line (ol_id INTEGER, i_id INTEGER)")
		}
		s.Close()
		engines[i] = e
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	// Dynamic schema gathering discovered both tables.
	if got := repl.Hosts("order_line"); len(got) != 2 {
		t.Fatalf("order_line hosts: %v", got)
	}
	if got := repl.Hosts("item"); len(got) != 3 {
		t.Fatalf("item hosts: %v", got)
	}

	s := openSession(t, v)
	// Writes to order_line only hit its two hosts.
	exec(t, s, "INSERT INTO order_line (ol_id, i_id) VALUES (1, 1)")
	if got := countOn(t, engines[0], "SELECT COUNT(*) FROM order_line"); got != 1 {
		t.Error("db0 missing order_line write")
	}
	if got := countOn(t, engines[1], "SELECT COUNT(*) FROM order_line"); got != 1 {
		t.Error("db1 missing order_line write")
	}
	// db2 must not have received it (no table there): its ops counter
	// should show only the item write below.
	exec(t, s, "INSERT INTO item (i_id, t) VALUES (1, 'x')")
	for i, e := range engines {
		if got := countOn(t, e, "SELECT COUNT(*) FROM item"); got != 1 {
			t.Errorf("backend %d missing item write", i)
		}
	}
	// Reads joining item+order_line can only run on db0/db1.
	for i := 0; i < 6; i++ {
		exec(t, s, "SELECT COUNT(*) FROM order_line ol JOIN item i ON ol.i_id = i.i_id")
	}
	bs := v.Backends()
	if bs[2].Ops() != 1 { // only the item insert
		t.Errorf("db2 ops = %d, want 1", bs[2].Ops())
	}
}

func TestTempTableFlowUnderPartialReplication(t *testing.T) {
	repl := balancer.NewPartialReplication(nil)
	v := NewVirtualDatabase(VDBConfig{Replication: repl, ParallelTx: true})
	for i := 0; i < 3; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		s := e.NewSession()
		s.ExecSQL("CREATE TABLE item (i_id INTEGER PRIMARY KEY, t VARCHAR)")
		if i < 2 {
			s.ExecSQL("CREATE TABLE order_line (ol_id INTEGER, i_id INTEGER, qty INTEGER)")
		}
		s.ExecSQL("INSERT INTO item (i_id, t) VALUES (1, 'x')")
		if i < 2 {
			s.ExecSQL("INSERT INTO order_line (ol_id, i_id, qty) VALUES (1, 1, 5)")
		}
		s.Close()
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	s := openSession(t, v)
	exec(t, s, "BEGIN")
	// The best-seller pattern: the temp table is created only on the
	// backends hosting order_line.
	exec(t, s, "CREATE TEMPORARY TABLE best AS SELECT i_id, SUM(qty) AS total FROM order_line GROUP BY i_id")
	if got := repl.Hosts("best"); len(got) != 2 {
		t.Fatalf("temp table hosts: %v", got)
	}
	// The join against it routes to those backends.
	res := exec(t, s, "SELECT i.t, b.total FROM best b JOIN item i ON i.i_id = b.i_id")
	if len(res.Rows) != 1 || res.Rows[0][1].I != 5 {
		t.Fatalf("bestseller join: %v", res.Rows)
	}
	exec(t, s, "DROP TABLE best")
	if got := repl.Hosts("best"); len(got) != 0 {
		t.Fatalf("temp table still registered: %v", got)
	}
	exec(t, s, "COMMIT")
}

func TestCacheServesRepeatedReads(t *testing.T) {
	rc := cache.New(cache.Config{Granularity: cache.GranTable})
	v, _ := mkVDB(t, 2, VDBConfig{Cache: rc, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	q := "SELECT i_title FROM item WHERE i_id = 1"
	exec(t, s, q)
	opsAfterMiss := v.Backends()[0].Ops() + v.Backends()[1].Ops()
	for i := 0; i < 10; i++ {
		exec(t, s, q)
	}
	if got := v.Backends()[0].Ops() + v.Backends()[1].Ops(); got != opsAfterMiss {
		t.Errorf("cached reads hit backends: %d -> %d", opsAfterMiss, got)
	}
	st := v.StatsSnapshot()
	if st.CacheHits != 10 || st.CacheMisses != 1 {
		t.Errorf("cache stats: %+v", st)
	}
	// A write invalidates; next read goes to a backend again.
	exec(t, s, "UPDATE item SET i_title = 'new' WHERE i_id = 1")
	res := exec(t, s, q)
	if res.Rows[0][0].AsString() != "new" {
		t.Errorf("stale read after write: %v", res.Rows[0][0])
	}
}

// TestMacroReadsBypassCache: a read calling NOW(), CURRENT_TIMESTAMP(),
// CURRENT_DATE() or RAND() answers per execution, not per data state, so the
// result cache neither serves nor keeps it; a plain read still hits.
func TestMacroReadsBypassCache(t *testing.T) {
	rc := cache.New(cache.Config{Granularity: cache.GranTable})
	v, _ := mkVDB(t, 2, VDBConfig{Cache: rc, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	for _, q := range []string{
		"SELECT i_id, NOW() FROM item WHERE i_id = 1",
		"SELECT i_id, CURRENT_TIMESTAMP() FROM item WHERE i_id = 1",
		"SELECT i_id, CURRENT_DATE() FROM item WHERE i_id = 1",
		"SELECT i_id FROM item ORDER BY RAND() LIMIT 1",
	} {
		for i := 0; i < 3; i++ {
			exec(t, s, q)
		}
	}
	if st := v.StatsSnapshot(); st.CacheHits != 0 {
		t.Errorf("macro reads served from the cache: %+v", st)
	}
	if n := rc.Len(); n != 0 {
		t.Errorf("macro reads cached: %d entries", n)
	}
	q := "SELECT i_title FROM item WHERE i_id = 1"
	exec(t, s, q)
	exec(t, s, q)
	if st := v.StatsSnapshot(); st.CacheHits != 1 || rc.Len() != 1 {
		t.Errorf("plain read: hits=%d len=%d, want 1 and 1", st.CacheHits, rc.Len())
	}
}

// TestBareMacrosRewriteAndBypassCache: the bare forms CURRENT_TIMESTAMP and
// CURRENT_DATE are macros like their call forms. A write using them is
// rewritten to one value, so both replicas store the same timestamps, and a
// read using them is neither served from nor stored in the result cache.
func TestBareMacrosRewriteAndBypassCache(t *testing.T) {
	rc := cache.New(cache.Config{Granularity: cache.GranTable})
	v, engines := mkVDB(t, 2, VDBConfig{Cache: rc, ParallelTx: true},
		"CREATE TABLE ev (id INTEGER PRIMARY KEY, t TIMESTAMP, d TIMESTAMP)",
		"INSERT INTO ev (id) VALUES (1), (2)")
	s := openSession(t, v)
	exec(t, s, "UPDATE ev SET t = CURRENT_TIMESTAMP, d = current_date WHERE id = 1")
	if _, err := s.Exec("UPDATE ev SET t = CURRENT_TIMESTAMP WHERE id = ?", []sqlval.Value{sqlval.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if a, b := sortedTableDump(t, engines[0], "ev"), sortedTableDump(t, engines[1], "ev"); a != b {
		t.Fatalf("replicas diverged:\n--- db0:\n%s\n--- db1:\n%s", a, b)
	}
	if n := countOn(t, engines[0], "SELECT COUNT(*) FROM ev WHERE t IS NULL"); n != 0 {
		t.Fatalf("%d rows without a timestamp", n)
	}
	for _, q := range []string{
		"SELECT id, CURRENT_TIMESTAMP FROM ev WHERE id = 1",
		"SELECT id FROM ev WHERE d = CURRENT_DATE",
	} {
		for i := 0; i < 3; i++ {
			exec(t, s, q)
		}
	}
	if st := v.StatsSnapshot(); st.CacheHits != 0 {
		t.Errorf("bare macro reads served from the cache: %+v", st)
	}
	if n := rc.Len(); n != 0 {
		t.Errorf("bare macro reads cached: %d entries", n)
	}
}

func TestInTransactionReadsBypassCache(t *testing.T) {
	rc := cache.New(cache.Config{Granularity: cache.GranTable})
	v, _ := mkVDB(t, 1, VDBConfig{Cache: rc, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	q := "SELECT i_cost FROM item WHERE i_id = 1"
	exec(t, s, q) // populate cache
	exec(t, s, "BEGIN")
	exec(t, s, "UPDATE item SET i_cost = 77 WHERE i_id = 1")
	res := exec(t, s, q)
	if f, _ := res.Rows[0][0].AsFloat(); f != 77 {
		t.Errorf("tx read served stale cache: %v", res.Rows[0][0])
	}
	exec(t, s, "ROLLBACK")
}

func TestWriteFailureDisablesBackend(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	bs := v.Backends()
	bs[1].InjectFailure(errors.New("disk died"))

	// The write succeeds on the healthy backend; the failing one is
	// disabled (§2.4.1: no 2PC).
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (9, 'z', 1)")
	// Wait on the counter, not on Enabled: the backend leaves the enabled
	// state at the start of its teardown, the counter moves after it.
	deadline := time.Now().Add(time.Second)
	for v.StatsSnapshot().BackendsDisabled == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bs[1].Enabled() {
		t.Fatal("failing backend not disabled")
	}
	if n := v.StatsSnapshot().BackendsDisabled; n != 1 {
		t.Errorf("disable counter = %d, want 1", n)
	}
	// Reads keep working on the survivor.
	res := exec(t, s, "SELECT COUNT(*) FROM item")
	if res.Rows[0][0].I != 4 {
		t.Errorf("read after failure: %v", res.Rows[0][0])
	}
}

func TestReadFailsOverToAnotherBackend(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{Balancer: &balancer.RoundRobin{}, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	v.Backends()[0].InjectFailure(errors.New("net down"))
	for i := 0; i < 4; i++ {
		res, err := s.Exec("SELECT COUNT(*) FROM item", nil)
		if err != nil {
			t.Fatalf("read %d did not fail over: %v", i, err)
		}
		if res.Rows[0][0].I != 3 {
			t.Fatalf("read %d: %v", i, res.Rows[0][0])
		}
	}
}

func TestSemanticErrorsDoNotDisableBackends(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	if _, err := s.Exec("SELECT * FROM missing_table", nil); err == nil {
		t.Fatal("expected error")
	}
	for _, b := range v.Backends() {
		if !b.Enabled() {
			t.Error("semantic error disabled a backend")
		}
	}
}

func TestAllBackendsFailedWrite(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	for _, b := range v.Backends() {
		b.InjectFailure(errors.New("boom"))
	}
	if _, err := s.Exec("DELETE FROM item", nil); err == nil {
		t.Fatal("write should fail when every backend fails")
	}
}

func TestRecoveryLogRecordsWrites(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, _ := mkVDB(t, 1, VDBConfig{RecoveryLog: log, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	exec(t, s, "BEGIN")
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (5, 'e', 50)")
	exec(t, s, "COMMIT")
	exec(t, s, "UPDATE item SET i_cost = 1 WHERE i_id = 5")
	entries, _ := log.Since(0)
	var classes []string
	for _, e := range entries {
		classes = append(classes, string(e.Class))
	}
	want := "begin,write,commit,write"
	if got := strings.Join(classes, ","); got != want {
		t.Errorf("log classes = %s, want %s", got, want)
	}
	if entries[1].User != "user" || entries[1].TxID == 0 {
		t.Errorf("log entry fields: %+v", entries[1])
	}
}

func TestBackupAndRestoreBackend(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)

	dump, err := v.BackupBackend("db0", "cp1")
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Tables) != 1 || len(dump.Tables[0].Rows) != 3 {
		t.Fatalf("dump shape: %+v", dump.Tables)
	}
	// The backend is re-enabled after backup.
	b0, _ := v.Backend("db0")
	if !b0.Enabled() {
		t.Fatal("backend not re-enabled after backup")
	}

	// More writes after the checkpoint.
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)")

	// db1 "fails": disable and corrupt it, then restore from dump+log.
	v.DisableBackend("db1")
	sess := engines[1].NewSession()
	sess.ExecSQL("DELETE FROM item")
	sess.Close()

	if err := v.RestoreBackend("db1", dump); err != nil {
		t.Fatal(err)
	}
	b1, _ := v.Backend("db1")
	if !b1.Enabled() {
		t.Fatal("backend not enabled after restore")
	}
	if got := countOn(t, engines[1], "SELECT COUNT(*) FROM item"); got != 4 {
		t.Errorf("restored rows = %d, want 4", got)
	}
}

func TestIntegrateNewBackend(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, _ := mkVDB(t, 1, VDBConfig{RecoveryLog: log, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)

	dump, err := v.BackupBackend("db0", "cp-int")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (10, 'j', 5)")

	eNew := sqlengine.New("db-new")
	bNew := backend.New(backend.Config{Name: "db-new", Driver: &backend.EngineDriver{Engine: eNew}})
	t.Cleanup(bNew.Close)
	if err := v.IntegrateBackend(bNew, dump); err != nil {
		t.Fatal(err)
	}
	if got := countOn(t, eNew, "SELECT COUNT(*) FROM item"); got != 4 {
		t.Errorf("integrated backend rows = %d, want 4", got)
	}
	// It now serves writes like any other backend.
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (11, 'k', 6)")
	if got := countOn(t, eNew, "SELECT COUNT(*) FROM item"); got != 5 {
		t.Errorf("integrated backend missing new write: %d", got)
	}
}

func TestAuthentication(t *testing.T) {
	auth := NewAuthManager()
	auth.AddUser("alice", "secret")
	v, _ := mkVDB(t, 1, VDBConfig{Auth: auth, ParallelTx: true}, seedSchema...)
	if _, err := v.NewSession("alice", "wrong"); !errors.Is(err, ErrAuth) {
		t.Fatalf("bad password: %v", err)
	}
	if _, err := v.NewSession("bob", "secret"); !errors.Is(err, ErrAuth) {
		t.Fatalf("unknown user: %v", err)
	}
	s, err := v.NewSession("alice", "secret")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Exec("SELECT 1", nil); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("closed session: %v", err)
	}
}

func TestParamsBindThroughVDB(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	res, err := s.Exec("SELECT i_title FROM item WHERE i_id = ?", []sqlval.Value{sqlval.Int(2)})
	if err != nil || res.Rows[0][0].AsString() != "b" {
		t.Fatalf("param read: %v %v", res, err)
	}
	_, err = s.Exec("UPDATE item SET i_title = ? WHERE i_id = ?",
		[]sqlval.Value{sqlval.String_("bee"), sqlval.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	res = exec(t, s, "SELECT i_title FROM item WHERE i_id = 2")
	if res.Rows[0][0].AsString() != "bee" {
		t.Errorf("param write: %v", res.Rows[0][0])
	}
}

func TestConcurrentSessionsParallelTransactions(t *testing.T) {
	v, engines := mkVDB(t, 3, VDBConfig{ParallelTx: true},
		"CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)",
		"INSERT INTO acct (id, bal) VALUES (1, 0), (2, 0), (3, 0), (4, 0)")
	const workers = 4
	const opsEach = 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := v.NewSession("u", "")
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			id := w + 1
			for i := 0; i < opsEach; i++ {
				if _, err := s.Exec("BEGIN", nil); err != nil {
					errCh <- err
					return
				}
				if _, err := s.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", id), nil); err != nil {
					errCh <- err
					return
				}
				if _, err := s.Exec(fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", id), nil); err != nil {
					errCh <- err
					return
				}
				if _, err := s.Exec("COMMIT", nil); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Every backend converged to the same state.
	for i, e := range engines {
		if got := countOn(t, e, "SELECT SUM(bal) FROM acct"); got != workers*opsEach {
			t.Errorf("backend %d sum = %d, want %d", i, got, workers*opsEach)
		}
	}
}

func TestEarlyResponseFirstReturnsBeforeSlowBackend(t *testing.T) {
	// One fast and one slow backend; early response "first" must return at
	// the fast backend's latency.
	v := NewVirtualDatabase(VDBConfig{Name: "t", EarlyResponse: ResponseFirst, ParallelTx: true})
	for i, delay := range []time.Duration{0, 20 * time.Millisecond} {
		e := sqlengine.New(fmt.Sprintf("db%d", i))
		s := e.NewSession()
		s.ExecSQL("CREATE TABLE t (a INTEGER)")
		s.Close()
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: &backend.EngineDriver{Engine: e}})
		if delay > 0 {
			b.SetFaultPlan(backend.NewFaultPlan(backend.Slow(backend.OpWrite, delay)))
		}
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	s := openSession(t, v)
	start := time.Now()
	exec(t, s, "INSERT INTO t (a) VALUES (1)")
	if elapsed := time.Since(start); elapsed > 15*time.Millisecond {
		t.Errorf("early response did not return early: %v", elapsed)
	}
	// The slow backend still applies the write (asynchronously).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		res, err := v.Backends()[1].Read(0, nil, "SELECT COUNT(*) FROM t")
		if err == nil && res.Rows[0][0].I == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("slow backend never applied the write")
}

func TestSerializedSchedulerStillCorrect(t *testing.T) {
	// ParallelTx disabled: everything serializes, results stay correct.
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: false}, seedSchema...)
	s := openSession(t, v)
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (7, 'g', 70)")
	res := exec(t, s, "SELECT COUNT(*) FROM item")
	if res.Rows[0][0].I != 4 {
		t.Errorf("serialized count: %v", res.Rows[0][0])
	}
}

func TestControllerHostsMultipleVDBs(t *testing.T) {
	c := New("ctrl0", 1)
	if c.Name() != "ctrl0" || c.ID() != 1 {
		t.Fatal("identity")
	}
	v1, err := c.AddVirtualDatabase(VDBConfig{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVirtualDatabase(VDBConfig{Name: "app"}); err == nil {
		t.Fatal("duplicate vdb accepted")
	}
	if _, err := c.AddVirtualDatabase(VDBConfig{Name: "logdb"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.VirtualDatabase("app")
	if err != nil || got != v1 {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if _, err := c.VirtualDatabase("nope"); err == nil {
		t.Fatal("missing vdb lookup succeeded")
	}
	names := c.VirtualDatabases()
	if len(names) != 2 || names[0] != "app" || names[1] != "logdb" {
		t.Fatalf("names: %v", names)
	}
	c.Close()
}

func TestCheckpointWithoutLogFails(t *testing.T) {
	v, _ := mkVDB(t, 1, VDBConfig{ParallelTx: true}, seedSchema...)
	if _, err := v.Checkpoint("cp"); !errors.Is(err, ErrNoRecoveryLog) {
		t.Fatalf("checkpoint without log: %v", err)
	}
	if _, err := v.BackupBackend("db0", "cp"); !errors.Is(err, ErrNoRecoveryLog) {
		t.Fatalf("backup without log: %v", err)
	}
}

func TestSessionCloseRollsBackClusterWide(t *testing.T) {
	v, engines := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	exec(t, s, "BEGIN")
	exec(t, s, "DELETE FROM item")
	s.Close()
	for i, e := range engines {
		if got := countOn(t, e, "SELECT COUNT(*) FROM item"); got != 3 {
			t.Errorf("backend %d after session close: %d", i, got)
		}
	}
}

// TestPlanCacheHitsSkipReparsing checks the parsing cache is active on the
// session hot path and that repeated statements hit it.
func TestPlanCacheHitsSkipReparsing(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	if v.PlanCache() == nil {
		t.Fatal("plan cache should be on by default")
	}
	s := openSession(t, v)
	// Literal-bound texts pass the admission doorkeeper: the first miss
	// only registers the text, the second admits, the rest hit.
	for i := 0; i < 6; i++ {
		exec(t, s, "SELECT i_title FROM item WHERE i_id = 1")
	}
	st := v.PlanCache().StatsSnapshot()
	if st.Hits < 4 {
		t.Errorf("plan cache hits = %d, want >= 4 (stats %+v)", st.Hits, st)
	}
	if st.Deferred == 0 {
		t.Errorf("doorkeeper never deferred a one-off admission (stats %+v)", st)
	}
}

// TestPlanCacheHitNeverBypassesInvalidation is the strong-consistency
// acceptance check: a read served through the parsing cache must still go
// through the result cache, and a write must invalidate it, so the next
// read sees the new data — never a stale cached result.
func TestPlanCacheHitNeverBypassesInvalidation(t *testing.T) {
	for _, gran := range []cache.Granularity{cache.GranDatabase, cache.GranTable, cache.GranColumn} {
		rc := cache.New(cache.Config{Granularity: gran})
		v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true, Cache: rc}, seedSchema...)
		s := openSession(t, v)

		q := "SELECT i_title FROM item WHERE i_id = 1"
		if got := exec(t, s, q).Rows[0][0].AsString(); got != "a" {
			t.Fatalf("[%v] first read: %q", gran, got)
		}
		// Repeat until both caches are warm: plan hit + result hit.
		exec(t, s, q)
		if v.StatsSnapshot().CacheHits == 0 {
			t.Fatalf("[%v] result cache never hit", gran)
		}

		exec(t, s, "UPDATE item SET i_title = 'z' WHERE i_id = 1")
		if got := exec(t, s, q).Rows[0][0].AsString(); got != "z" {
			t.Errorf("[%v] stale read after write through plan cache: %q", gran, got)
		}

		// Parameterized form: same plan template, different bindings must
		// produce distinct results and respect invalidation too.
		pq := "SELECT i_title FROM item WHERE i_id = ?"
		for i := 0; i < 2; i++ {
			r1, err := s.Exec(pq, []sqlval.Value{sqlval.Int(2)})
			if err != nil || r1.Rows[0][0].AsString() != "b" {
				t.Fatalf("[%v] param read 2: %+v %v", gran, r1, err)
			}
			r2, err := s.Exec(pq, []sqlval.Value{sqlval.Int(3)})
			if err != nil || r2.Rows[0][0].AsString() != "c" {
				t.Fatalf("[%v] param read 3: %+v %v", gran, r2, err)
			}
		}
		if _, err := s.Exec("UPDATE item SET i_title = ? WHERE i_id = ?",
			[]sqlval.Value{sqlval.String_("q"), sqlval.Int(2)}); err != nil {
			t.Fatal(err)
		}
		r1, err := s.Exec(pq, []sqlval.Value{sqlval.Int(2)})
		if err != nil || r1.Rows[0][0].AsString() != "q" {
			t.Errorf("[%v] stale parameterized read after write: %+v %v", gran, r1, err)
		}
	}
}

// TestPlanCacheConcurrentSessions drives 16 sessions through the full
// controller path sharing one plan cache and one result cache; run with
// -race. Mixing reads, parameterized reads and writes exercises
// clone-on-bind under concurrency.
func TestPlanCacheConcurrentSessions(t *testing.T) {
	rc := cache.New(cache.Config{Granularity: cache.GranTable})
	v, _ := mkVDB(t, 3, VDBConfig{ParallelTx: true, Cache: rc}, seedSchema...)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := v.NewSession("user", "pw")
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					if _, err := s.Exec("SELECT i_title FROM item WHERE i_id = 1", nil); err != nil {
						t.Error(err)
						return
					}
				case 1:
					id := int64(1 + (g+i)%3)
					res, err := s.Exec("SELECT i_cost FROM item WHERE i_id = ?", []sqlval.Value{sqlval.Int(id)})
					if err != nil || len(res.Rows) != 1 {
						t.Errorf("param read: %v", err)
						return
					}
				case 2:
					if _, err := s.Exec("UPDATE item SET i_cost = ? WHERE i_id = ?",
						[]sqlval.Value{sqlval.Float(float64(i)), sqlval.Int(int64(1 + i%3))}); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := s.Exec("SELECT COUNT(*) FROM item", nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
