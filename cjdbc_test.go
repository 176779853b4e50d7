package cjdbc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cjdbc/internal/sqlengine"
)

func newTestCluster(t *testing.T, n int, cfg VirtualDatabaseConfig) (*Controller, *VirtualDatabase) {
	t.Helper()
	ctrl := NewController("ctrl-test", 1)
	t.Cleanup(ctrl.Close)
	if cfg.Name == "" {
		cfg.Name = "mydb"
	}
	vdb, err := ctrl.CreateVirtualDatabase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := vdb.AddInMemoryBackend(fmt.Sprintf("db%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return ctrl, vdb
}

func TestQuickstartFlow(t *testing.T) {
	_, vdb := newTestCluster(t, 2, VirtualDatabaseConfig{})
	sess, err := vdb.OpenSession("user", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mustE := func(sql string, args ...any) *Rows {
		t.Helper()
		r, err := sess.Exec(sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return r
	}
	mustE("CREATE TABLE users (id INTEGER PRIMARY KEY AUTO_INCREMENT, name VARCHAR NOT NULL, joined TIMESTAMP)")
	r := mustE("INSERT INTO users (name, joined) VALUES (?, ?)", "ada", time.Date(2004, 6, 27, 0, 0, 0, 0, time.UTC))
	if r.LastInsertID != 1 || r.RowsAffected != 1 {
		t.Fatalf("insert result: %+v", r)
	}
	mustE("INSERT INTO users (name) VALUES (?)", "grace")

	rows := mustE("SELECT id, name FROM users ORDER BY id")
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	var id int64
	var name string
	for rows.Next() {
		if err := rows.Scan(&id, &name); err != nil {
			t.Fatal(err)
		}
	}
	if id != 2 || name != "grace" {
		t.Errorf("last row: %d %q", id, name)
	}

	// Transactions through the interface methods.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustE("UPDATE users SET name = ? WHERE id = ?", "ada lovelace", 1)
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	rows = mustE("SELECT name FROM users WHERE id = 1")
	rows.Next()
	var got string
	rows.Scan(&got)
	if got != "ada lovelace" {
		t.Errorf("name = %q", got)
	}
}

// TestAggregateOverEmptyTableThroughCluster: a client's aggregate over an
// empty table answers one row with the bare column NULL instead of taking
// the controller process down.
func TestAggregateOverEmptyTableThroughCluster(t *testing.T) {
	_, vdb := newTestCluster(t, 2, VirtualDatabaseConfig{})
	sess, err := vdb.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("CREATE TABLE e (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT x, COUNT(*) FROM e",
		"SELECT x, COUNT(*) FROM e HAVING x IS NULL",
	} {
		rows, err := sess.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var x any
		var n int64
		if rows.Len() != 1 || !rows.Next() {
			t.Fatalf("%s: %d rows, want 1", q, rows.Len())
		}
		if err := rows.Scan(&x, &n); err != nil || x != nil || n != 0 {
			t.Fatalf("%s = (%v, %d), err %v; want (NULL, 0)", q, x, n, err)
		}
	}
}

// TestCurrentDateThroughCluster: CURRENT_DATE() means the same day at
// midnight UTC on both paths. A write reaches the backends with the macro
// already replaced by the controller's value, while a read evaluates it
// in the engine; if the two disagree, a row written "today" is not found
// by a query for today.
func TestCurrentDateThroughCluster(t *testing.T) {
	_, vdb := newTestCluster(t, 2, VirtualDatabaseConfig{})
	sess, err := vdb.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	today := func() time.Time { return time.Now().UTC().Truncate(24 * time.Hour) }
	before := today()
	for _, q := range []string{
		"CREATE TABLE d (id INTEGER PRIMARY KEY, day TIMESTAMP)",
		"INSERT INTO d (id, day) VALUES (1, CURRENT_DATE())",
	} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	rows, err := sess.Query("SELECT day, CURRENT_DATE() FROM d WHERE day = CURRENT_DATE()")
	if err != nil {
		t.Fatal(err)
	}
	if !today().Equal(before) {
		t.Skip("the UTC date changed during the test")
	}
	var stored, evaluated time.Time
	if rows.Len() != 1 || !rows.Next() {
		t.Fatalf("%d rows for today, want 1", rows.Len())
	}
	if err := rows.Scan(&stored, &evaluated); err != nil {
		t.Fatal(err)
	}
	if !stored.Equal(before) || !evaluated.Equal(before) {
		t.Fatalf("stored %v, evaluated %v; want both %v", stored, evaluated, before)
	}
}

func TestScanDestinations(t *testing.T) {
	_, vdb := newTestCluster(t, 1, VirtualDatabaseConfig{})
	sess, _ := vdb.OpenSession("u", "")
	defer sess.Close()
	sess.Exec("CREATE TABLE t (i INTEGER, f FLOAT, s VARCHAR, b BOOLEAN, ts TIMESTAMP, bl BLOB)")
	when := time.Date(2004, 1, 2, 3, 4, 5, 0, time.UTC)
	sess.Exec("INSERT INTO t (i, f, s, b, ts, bl) VALUES (?, ?, ?, ?, ?, ?)",
		int64(7), 2.5, "str", true, when, []byte{1, 2})
	rows, err := sess.Query("SELECT i, f, s, b, ts, bl FROM t")
	if err != nil || !rows.Next() {
		t.Fatalf("query: %v", err)
	}
	var (
		i  int64
		f  float64
		s  string
		b  bool
		ts time.Time
		bl []byte
	)
	if err := rows.Scan(&i, &f, &s, &b, &ts, &bl); err != nil {
		t.Fatal(err)
	}
	if i != 7 || f != 2.5 || s != "str" || !b || !ts.Equal(when) || len(bl) != 2 {
		t.Errorf("scanned: %v %v %q %v %v %v", i, f, s, b, ts, bl)
	}
	// Generic access.
	rows.Reset()
	rows.Next()
	if rows.Value(0) != int64(7) {
		t.Errorf("Value(0) = %v", rows.Value(0))
	}
}

// A BLOB is copied on the way in and on the way out: neither the caller's
// argument nor a returned []byte shares memory with the stored row, so the
// rows stay what the recovery log rendered when the write was logged.
func TestBlobArgumentIsNotAliased(t *testing.T) {
	_, vdb := newTestCluster(t, 2, VirtualDatabaseConfig{RecoveryLogPath: "memory"})
	sess, _ := vdb.OpenSession("u", "")
	defer sess.Close()
	read := func() string {
		t.Helper()
		rows, err := sess.Query("SELECT b FROM t WHERE id = 1")
		if err != nil || !rows.Next() {
			t.Fatalf("select: %v", err)
		}
		var got []byte
		if err := rows.Scan(&got); err != nil {
			t.Fatal(err)
		}
		return string(got)
	}
	if _, err := sess.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, b BLOB)"); err != nil {
		t.Fatal(err)
	}
	buf := []byte("aaaa")
	if _, err := sess.Exec("INSERT INTO t (id, b) VALUES (?, ?)", 1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "ZZZZ")
	if got := read(); got != "aaaa" {
		t.Fatalf("after writing to the argument the row reads %q", got)
	}

	rows, err := sess.Query("SELECT b FROM t WHERE id = 1")
	if err != nil || !rows.Next() {
		t.Fatalf("select: %v", err)
	}
	rows.Value(0).([]byte)[0] = 'Q'
	var scanned []byte
	rows.Scan(&scanned)
	scanned[1] = 'Q'
	if got := read(); got != "aaaa" {
		t.Fatalf("after writing to a returned []byte the row reads %q", got)
	}
}

// A result's column names are the caller's: writing to them changes no
// later result of the same statement.
func TestColumnsAreNotAliased(t *testing.T) {
	_, vdb := newTestCluster(t, 2, VirtualDatabaseConfig{RecoveryLogPath: "memory"})
	sess, _ := vdb.OpenSession("u", "")
	defer sess.Close()
	if _, err := sess.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 4; id++ {
		rows, err := sess.Query("SELECT id, v FROM t WHERE id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(rows.Columns, ","); got != "id,v" {
			t.Fatalf("run %d: columns %q after an earlier result's were written to", id, got)
		}
		rows.Columns[0] = "scribbled"
	}
}

func TestNetworkDriverAndFailover(t *testing.T) {
	// Two controllers sharing the same two engine backends (the budget-HA
	// pattern of §5.1).
	ctrlA := NewController("A", 1)
	ctrlB := NewController("B", 2)
	defer ctrlA.Close()
	defer ctrlB.Close()

	mk := func(c *Controller, join bool) *VirtualDatabase {
		v, err := c.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "ha"})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.AddInMemoryBackend(c.Name() + "-db"); err != nil {
			t.Fatal(err)
		}
		if join {
			if err := v.JoinGroup("ha-group-failover", c.Name()); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	va := mk(ctrlA, true)
	vb := mk(ctrlB, true)
	defer va.LeaveGroup()
	defer vb.LeaveGroup()

	addrA, err := ctrlA.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := ctrlB.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	sess, err := Connect(fmt.Sprintf("cjdbc://%s,%s/ha?user=u", addrA, addrB))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (1, 'before')"); err != nil {
		t.Fatal(err)
	}

	// Kill controller A; the driver must fail over to B transparently.
	ctrlA.Close()
	va.LeaveGroup()

	var rows *Rows
	deadline := time.Now().Add(2 * time.Second)
	for {
		rows, err = sess.Query("SELECT v FROM t WHERE id = 1")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rows.Next()
	var v string
	rows.Scan(&v)
	if v != "before" {
		t.Errorf("value after failover: %q", v)
	}
	// Writes keep working against B.
	if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (2, 'after')"); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
}

// The driver tracks an open transaction from the statements it sends, so
// every spelling the parser accepts must open or close it: a failover
// inside a transaction is an error, never a silent auto-commit retry, and a
// failover after COMMIT is transparent.
func TestFailoverAbortsOpenTransaction(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stmts  []string // sent on controller A before it dies
		wantTx bool     // whether the failover must report a lost transaction
	}{
		{"BEGIN", []string{"BEGIN"}, true},
		{"BEGIN;", []string{"BEGIN;"}, true},
		{"begin;", []string{"begin;"}, true},
		{"comment-led", []string{"/* app */ BEGIN"}, true},
		{"START TRANSACTION;", []string{"START TRANSACTION;"}, true},
		{"COMMIT;", []string{"BEGIN", "COMMIT;"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrlA := NewController("A2", 1)
			ctrlB := NewController("B2", 2)
			defer ctrlA.Close()
			defer ctrlB.Close()
			for _, c := range []*Controller{ctrlA, ctrlB} {
				v, err := c.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "ha"})
				if err != nil {
					t.Fatal(err)
				}
				if err := v.AddInMemoryBackend(c.Name() + "-db"); err != nil {
					t.Fatal(err)
				}
			}
			addrA, _ := ctrlA.ListenAndServe("127.0.0.1:0")
			addrB, _ := ctrlB.ListenAndServe("127.0.0.1:0")
			sess, err := Connect(fmt.Sprintf("cjdbc://%s,%s/ha", addrA, addrB))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if _, err := sess.Exec("CREATE TABLE t (id INTEGER)"); err != nil {
				t.Fatal(err)
			}
			for _, q := range append(tc.stmts, "INSERT INTO t (id) VALUES (1)") {
				if _, err := sess.Exec(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			ctrlA.Close()
			_, err = sess.Exec("SELECT 1")
			if tc.wantTx && !errors.Is(err, ErrTxLostOnFailover) {
				t.Fatalf("expected ErrTxLostOnFailover, got %v", err)
			}
			if !tc.wantTx && err != nil {
				t.Fatalf("auto-commit statement after COMMIT did not fail over: %v", err)
			}
			// Session is usable again in auto-commit mode on controller B.
			if _, err := sess.Exec("SELECT 1"); err != nil {
				t.Fatalf("session dead after tx failover: %v", err)
			}
		})
	}
}

func TestLeadingKeyword(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{"BEGIN", "BEGIN"},
		{"BEGIN;", "BEGIN"},
		{"begin;", "begin"},
		{"  \t\r\nCOMMIT;", "COMMIT"},
		{"/* app */ BEGIN", "BEGIN"},
		{"/* a */ /* b */\n-- note\nrollback", "rollback"},
		{"-- only a comment", ""},
		{"/* unclosed", ""},
		{"START TRANSACTION;", "START"},
		{"SELECT 1", "SELECT"},
		{"BEGINNING", "BEGINNING"},
		{"(SELECT 1)", ""},
		{"", ""},
	} {
		if got := leadingKeyword(tc.sql); got != tc.want {
			t.Errorf("leadingKeyword(%q) = %q, want %q", tc.sql, got, tc.want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !strings.EqualFold(leadingKeyword("/* app */ begin;"), "BEGIN") {
			t.Fatal("comment-led begin not recognised")
		}
	})
	if allocs != 0 {
		t.Errorf("leadingKeyword + EqualFold: %v allocs per call, want 0", allocs)
	}
}

// A statement error raised on a leaf controller must reach the top
// controller still classified as a statement error: the wire carries the
// class, so one client's bad statement cannot disable the leaf cluster.
func TestNestedControllerSurvivesStatementErrors(t *testing.T) {
	leaf := NewController("leaf", 12)
	defer leaf.Close()
	leafVDB, err := leaf.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "leafdb"})
	if err != nil {
		t.Fatal(err)
	}
	leafVDB.AddInMemoryBackend("l0")
	leafVDB.AddInMemoryBackend("l1")
	leafAddr, err := leaf.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	top := NewController("top", 13)
	defer top.Close()
	topVDB, err := top.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "topdb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := topVDB.AddClusterBackend("leaf-as-backend", fmt.Sprintf("cjdbc://%s/leafdb", leafAddr)); err != nil {
		t.Fatal(err)
	}
	sess, err := topVDB.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, sql := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)",
		"INSERT INTO t (id, v) VALUES (1, 'deep')",
	} {
		if _, err := sess.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// The same statements through an in-process session on the leaf give
	// the message the two-level path must deliver byte-for-byte.
	leafSess, err := leafVDB.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer leafSess.Close()
	for _, sql := range []string{
		"INSERT INTO t (id, v) VALUES (1, 'again')", // duplicate key
		"SELECT 1/0 FROM t",                         // value error on a read
	} {
		_, want := leafSess.Exec(sql)
		_, err := sess.Exec(sql)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: through the tree %v, on the leaf %v", sql, err, want)
		}
	}
	b, err := topVDB.Internal().Backend("leaf-as-backend")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Enabled() {
		t.Fatal("statement errors disabled the leaf cluster")
	}
	if rows, err := sess.Query("SELECT v FROM t WHERE id = 1"); err != nil || rows.Len() != 1 {
		t.Fatalf("read after statement errors: %v", err)
	}
	if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (2, 'fine')"); err != nil {
		t.Fatalf("write after statement errors: %v", err)
	}
}

func TestVerticalScalability(t *testing.T) {
	// Leaf controller with two real backends.
	leaf := NewController("leaf", 10)
	defer leaf.Close()
	leafVDB, err := leaf.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "leafdb"})
	if err != nil {
		t.Fatal(err)
	}
	leafVDB.AddInMemoryBackend("l0")
	leafVDB.AddInMemoryBackend("l1")
	leafAddr, err := leaf.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Top controller whose only backend is the leaf controller, reached
	// through the re-injected driver (Figure 4).
	top := NewController("top", 11)
	defer top.Close()
	topVDB, err := top.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "topdb"})
	if err != nil {
		t.Fatal(err)
	}
	if err := topVDB.AddClusterBackend("leaf-as-backend", fmt.Sprintf("cjdbc://%s/leafdb", leafAddr)); err != nil {
		t.Fatal(err)
	}

	sess, err := topVDB.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (1, 'deep')"); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query("SELECT v FROM t WHERE id = 1")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("query through two levels: %v", err)
	}
	// Transactions traverse the tree too.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("UPDATE t SET v = 'deeper' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	rows, _ = sess.Query("SELECT v FROM t WHERE id = 1")
	rows.Next()
	var v string
	rows.Scan(&v)
	if v != "deeper" {
		t.Errorf("nested tx result: %q", v)
	}
	// Both leaf backends hold the data (write-all at the leaf).
	leafSess, _ := leafVDB.OpenSession("u", "")
	defer leafSess.Close()
	rows, _ = leafSess.Query("SELECT COUNT(*) FROM t")
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n != 1 {
		t.Errorf("leaf rows = %d", n)
	}
}

func TestCacheConfigThroughPublicAPI(t *testing.T) {
	_, vdb := newTestCluster(t, 1, VirtualDatabaseConfig{
		Cache: &CacheConfig{Granularity: "column", MaxEntries: 10},
	})
	sess, _ := vdb.OpenSession("u", "")
	defer sess.Close()
	sess.Exec("CREATE TABLE t (a INTEGER, b INTEGER)")
	sess.Exec("INSERT INTO t (a, b) VALUES (1, 2)")
	if _, err := sess.Query("SELECT a FROM t WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	// Second identical read served from cache.
	before := vdb.Internal().StatsSnapshot().CacheHits
	sess.Query("SELECT a FROM t WHERE a = 1")
	if vdb.Internal().StatsSnapshot().CacheHits != before+1 {
		t.Error("cache hit not recorded")
	}
}

func TestPartialReplicationConfig(t *testing.T) {
	ctrl := NewController("pr", 3)
	defer ctrl.Close()
	vdb, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{
		Name:               "pr",
		PartialReplication: map[string][]string{"hot": {"db0", "db1"}, "cold": {"db1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb.AddInMemoryBackend("db0")
	vdb.AddInMemoryBackend("db1")
	sess, _ := vdb.OpenSession("u", "")
	defer sess.Close()
	// CREATE routes per the static map merged with dynamic discovery.
	if _, err := sess.Exec("CREATE TABLE hot (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO hot (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query("SELECT COUNT(*) FROM hot")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("read on partial table: %v", err)
	}
}

// TestPartialByTablesThroughPublicAPI: PartialByTables with WithTables is
// the public switch to RAIDb-2 placement declared per backend, and without
// partial replication a backend declaring a subset is refused.
func TestPartialByTablesThroughPublicAPI(t *testing.T) {
	ctrl := NewController("pbt", 4)
	defer ctrl.Close()
	vdb, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "pbt", PartialByTables: true})
	if err != nil {
		t.Fatal(err)
	}
	e0, e1 := sqlengine.New("db0"), sqlengine.New("db1")
	if err := vdb.AddEngineBackend("db0", e0, WithTables("account", "session")); err != nil {
		t.Fatal(err)
	}
	if err := vdb.AddEngineBackend("db1", e1, WithTables("account")); err != nil {
		t.Fatal(err)
	}
	if err := vdb.ValidatePlacement(); err != nil {
		t.Fatalf("ValidatePlacement: %v", err)
	}
	sess, err := vdb.OpenSession("u", "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, q := range []string{"CREATE TABLE account (id INTEGER PRIMARY KEY)", "CREATE TABLE session (id INTEGER PRIMARY KEY)"} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if got := fmt.Sprint(e0.TableNames()); got != "[account session]" {
		t.Errorf("db0 tables = %s, want [account session]", got)
	}
	if got := fmt.Sprint(e1.TableNames()); got != "[account]" {
		t.Errorf("db1 tables = %s, want [account] (session is declared on db0 alone)", got)
	}

	full, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "full"})
	if err != nil {
		t.Fatal(err)
	}
	err = full.AddInMemoryBackend("db0", WithTables("account"))
	if err == nil || !strings.Contains(err.Error(), "declared subsets need partial replication") {
		t.Fatalf("declared subset under full replication: err = %v", err)
	}
}

func TestCheckpointBackupRestorePublicAPI(t *testing.T) {
	_, vdb := newTestCluster(t, 2, VirtualDatabaseConfig{RecoveryLogPath: "memory"})
	sess, _ := vdb.OpenSession("u", "")
	defer sess.Close()
	sess.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
	sess.Exec("INSERT INTO t (id) VALUES (1), (2)")

	dump, err := vdb.BackupBackend("db0", "cp1")
	if err != nil {
		t.Fatal(err)
	}
	sess.Exec("INSERT INTO t (id) VALUES (3)")

	vdb.DisableBackend("db1")
	if got := vdb.BackendStates()["db1"]; got != "disabled" {
		t.Fatalf("state = %q", got)
	}
	if err := vdb.RestoreBackend("db1", dump); err != nil {
		t.Fatal(err)
	}
	if got := vdb.BackendStates()["db1"]; got != "enabled" {
		t.Fatalf("state after restore = %q", got)
	}
	rows, _ := sess.Query("SELECT COUNT(*) FROM t")
	rows.Next()
	var n int64
	rows.Scan(&n)
	if n != 3 {
		t.Errorf("rows = %d", n)
	}
}

func TestParseDSN(t *testing.T) {
	d, err := ParseDSN("cjdbc://h1:1000,h2:2000/mydb?user=alice&password=pw")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Controllers) != 2 || d.Controllers[1] != "h2:2000" {
		t.Errorf("controllers: %v", d.Controllers)
	}
	if d.VDB != "mydb" || d.User != "alice" || d.Password != "pw" {
		t.Errorf("parsed: %+v", d)
	}
	// Userinfo form.
	d, err = ParseDSN("cjdbc://bob:s3c@h1:1000/db")
	if err != nil || d.User != "bob" || d.Password != "s3c" {
		t.Errorf("userinfo form: %+v, %v", d, err)
	}
	for _, bad := range []string{
		"mysql://h/db", "cjdbc://h:1", "cjdbc:///db", "://",
	} {
		if _, err := ParseDSN(bad); err == nil {
			t.Errorf("ParseDSN(%q) should fail", bad)
		}
	}
}

func TestAuthOverNetwork(t *testing.T) {
	ctrl := NewController("auth", 5)
	defer ctrl.Close()
	vdb, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{
		Name:  "secure",
		Users: map[string]string{"alice": "pw"},
	})
	if err != nil {
		t.Fatal(err)
	}
	vdb.AddInMemoryBackend("db0")
	addr, _ := ctrl.ListenAndServe("127.0.0.1:0")

	if _, err := Connect(fmt.Sprintf("cjdbc://%s/secure?user=alice&password=nope", addr)); err == nil {
		t.Fatal("bad password accepted")
	}
	sess, err := Connect(fmt.Sprintf("cjdbc://%s/secure?user=alice&password=pw", addr))
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if _, err := Connect(fmt.Sprintf("cjdbc://%s/missing?user=alice&password=pw", addr)); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing vdb: %v", err)
	}
}

// TestLimitColumnOverTheWire: a column in LIMIT fails the statement with
// the engine's error; the controller serving the connection stays up and
// the same session answers its next statement.
func TestLimitColumnOverTheWire(t *testing.T) {
	ctrl, _ := newTestCluster(t, 2, VirtualDatabaseConfig{})
	addr, err := ctrl.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Connect(fmt.Sprintf("cjdbc://%s/mydb", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, q := range []string{"CREATE TABLE item (i_id INTEGER PRIMARY KEY)", "INSERT INTO item (i_id) VALUES (1)"} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Query("SELECT i_id FROM item LIMIT i_id"); err == nil || !strings.Contains(err.Error(), `engine: unknown column "i_id"`) {
		t.Fatalf("LIMIT i_id: error %v, want unknown column \"i_id\"", err)
	}
	rows, err := sess.Query("SELECT 1")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("SELECT 1 after the refused LIMIT: %v", err)
	}
}

// TestNonASCIIIdentifierOverTheWire: an unquoted non-ASCII identifier is
// a parse error the client receives; the controller serving the
// connection stays up and the same session answers its next statement.
func TestNonASCIIIdentifierOverTheWire(t *testing.T) {
	ctrl, _ := newTestCluster(t, 2, VirtualDatabaseConfig{})
	addr, err := ctrl.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Connect(fmt.Sprintf("cjdbc://%s/mydb", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query("SELECT prénom FROM t"); err == nil || !strings.Contains(err.Error(), "offset 9") {
		t.Fatalf("SELECT prénom FROM t: error %v, want a parse error at offset 9", err)
	}
	rows, err := sess.Query("SELECT 1")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("SELECT 1 after the refused statement: %v", err)
	}
}

func TestBadConfigRejected(t *testing.T) {
	ctrl := NewController("bad", 9)
	defer ctrl.Close()
	if _, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "x", LoadBalancer: "psychic"}); err == nil {
		t.Error("unknown balancer accepted")
	}
	if _, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "x", EarlyResponse: "eventually"}); err == nil {
		t.Error("unknown early response accepted")
	}
	if _, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "x", Cache: &CacheConfig{Granularity: "row"}}); err == nil {
		t.Error("unknown granularity accepted")
	}
}

// TestControllerCloseClosesItsFileLog: the file log CreateVirtualDatabase
// opens from RecoveryLogPath is the controller's, and Close closes it. A
// second virtual database of the same name fails after opening its own log
// (which it closes) and leaves the first one's in place.
func TestControllerCloseClosesItsFileLog(t *testing.T) {
	dir := t.TempDir()
	ctrl := NewController("closelog", 1)
	vdb, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "logged", RecoveryLogPath: filepath.Join(dir, "a.log")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.CreateVirtualDatabase(VirtualDatabaseConfig{Name: "logged", RecoveryLogPath: filepath.Join(dir, "b.log")}); err == nil {
		t.Fatal("a second virtual database of the same name was created")
	}
	ctrl.Close()
	if err := vdb.Internal().RecoveryLog().Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("closing the log after the controller closed: %v, want os.ErrClosed", err)
	}
}
