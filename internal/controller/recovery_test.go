package controller

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// TestRestoreBackendParallelReplayManyClasses: re-integration replays a log
// spanning several disjoint conflict classes on GOMAXPROCS parallel
// appliers and converges to the same content as the live backend.
func TestRestoreBackendParallelReplayManyClasses(t *testing.T) {
	schema := make([]string, 0, 8)
	for i := 0; i < 4; i++ {
		schema = append(schema, fmt.Sprintf("CREATE TABLE t%d (id INTEGER PRIMARY KEY, v INTEGER)", i))
	}
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true}, schema...)
	s := openSession(t, v)

	dump, err := v.BackupBackend("db0", "cp-par")
	if err != nil {
		t.Fatal(err)
	}
	// Writes over four disjoint classes land after the checkpoint.
	for i := 0; i < 40; i++ {
		exec(t, s, fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, %d)", i%4, i, i))
	}

	v.DisableBackend("db1")
	sess := engines[1].NewSession()
	for i := 0; i < 4; i++ {
		sess.ExecSQL(fmt.Sprintf("DELETE FROM t%d", i))
	}
	sess.Close()

	if err := v.RestoreBackend("db1", dump); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := countOn(t, engines[1], fmt.Sprintf("SELECT COUNT(*) FROM t%d", i)); got != 10 {
			t.Errorf("t%d restored rows = %d, want 10", i, got)
		}
	}
}

// TestRestoreBackendStaysDisabledOnReplayFailure: crash consistency of the
// parallel replay pipeline at the controller level — when an entry fails
// mid-replay, the error surfaces from RestoreBackend, the appliers drain
// cleanly (RestoreBackend returns), and the backend stays disabled: a
// partially replayed backend may hold different conflict classes at
// different log positions and must never serve clients.
func TestRestoreBackendStaysDisabledOnReplayFailure(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)

	dump, err := v.BackupBackend("db0", "cp-bad")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)")
	// Poison the log: an entry whose SQL can never replay (its table does
	// not exist in the dump).
	if _, err := log.Append(recovery.Entry{
		Class: recovery.ClassWrite, SQL: "INSERT INTO vanished (a) VALUES (1)",
		Tables: []string{"vanished"}, V: recovery.FootprintVersion,
	}); err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (5, 'e', 50)")

	v.DisableBackend("db1")
	err = v.RestoreBackend("db1", dump)
	if err == nil {
		t.Fatal("restore over a poisoned log must fail")
	}
	if !strings.Contains(err.Error(), "vanished") {
		t.Fatalf("replay failure does not name the entry: %v", err)
	}
	b1, _ := v.Backend("db1")
	if b1.State() != backend.StateDisabled {
		t.Fatalf("backend state after failed restore = %v, want disabled", b1.State())
	}
	// The cluster keeps serving from the healthy backend, and a later
	// restore after the operator fixes the problem — adds the table the entry
	// writes to the dump — replays past the entry and succeeds.
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (6, 'f', 60)")
	fixed := *dump
	fixed.Tables = append(append([]recovery.TableDump(nil), dump.Tables...), recovery.TableDump{
		Name: "vanished", DDL: []string{"CREATE TABLE vanished (a INTEGER)"}, Columns: []string{"a"}})
	if err := v.RestoreBackend("db1", &fixed); err != nil {
		t.Fatalf("restore after repair: %v", err)
	}
	if !b1.Enabled() {
		t.Fatal("backend not enabled after successful restore")
	}
	if got := countOn(t, engines[1], "SELECT COUNT(*) FROM item"); got != 6 {
		t.Errorf("restored rows = %d, want 6", got)
	}
	if got := countOn(t, engines[1], "SELECT COUNT(*) FROM vanished"); got != 1 {
		t.Errorf("replayed rows of vanished = %d, want 1", got)
	}
}

// TestRefusedWriteIsNotLogged: a write refused for want of an enabled host
// was never applied anywhere and its client was told so; it must leave no
// entry in the recovery log, or every later re-integration replays it.
func TestRefusedWriteIsNotLogged(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	dump, err := v.BackupBackend("db0", "cp-refused")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)")
	v.DisableBackend("db0")
	v.DisableBackend("db1")
	before, err := log.Since(0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (5, 'phantom', 50)", nil); !errors.Is(err, ErrNoWriteTarget) {
		t.Fatalf("write with every backend disabled: got %v, want ErrNoWriteTarget", err)
	}
	exec(t, s, "BEGIN")
	if _, err := s.Exec("UPDATE item SET i_cost = 0 WHERE i_id = 1", nil); !errors.Is(err, ErrNoWriteTarget) {
		t.Fatalf("transactional write with every backend disabled: got %v, want ErrNoWriteTarget", err)
	}
	if v.Scheduler().AnyTxActive() {
		t.Fatal("a refused write left its transaction a footprint")
	}
	after, err := log.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	// The BEGIN is logged; neither refused write is.
	if len(after) != len(before)+1 || after[len(after)-1].Class != recovery.ClassBegin {
		t.Fatalf("log grew from %d to %d entries over two refused writes and a BEGIN", len(before), len(after))
	}

	for i, name := range []string{"db0", "db1"} {
		if err := v.RestoreBackend(name, dump); err != nil {
			t.Fatal(err)
		}
		if got := countOn(t, engines[i], "SELECT COUNT(*) FROM item"); got != 4 {
			t.Errorf("%s holds %d rows after re-integration, want 4 (the refused insert must not replay)", name, got)
		}
		if got := countOn(t, engines[i], "SELECT COUNT(*) FROM item WHERE i_cost = 0"); got != 0 {
			t.Errorf("%s holds the refused transactional update", name)
		}
	}
}

// TestRefusedDemarcationIsNotLogged: a COMMIT that finds no enabled backend
// was executed nowhere — every replica's teardown rolled the transaction
// back and the client was told the COMMIT failed. It must leave no entry in
// the recovery log, or the next re-integration replays the transaction's
// writes as committed.
func TestRefusedDemarcationIsNotLogged(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	dump, err := v.BackupBackend("db0", "cp-demarcation")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "BEGIN")
	exec(t, s, "UPDATE item SET i_cost = 0 WHERE i_id = 1")
	v.DisableBackend("db0")
	v.DisableBackend("db1")
	before, err := log.Since(0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Exec("COMMIT", nil); !errors.Is(err, ErrNoWriteTarget) {
		t.Fatalf("COMMIT with every backend disabled: got %v, want ErrNoWriteTarget", err)
	}
	if v.Scheduler().AnyTxActive() {
		t.Fatal("the refused COMMIT left its transaction registered")
	}
	after, err := log.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("log grew from %d to %d entries over a refused COMMIT (last: %+v)", len(before), len(after), after[len(after)-1])
	}

	for i, name := range []string{"db0", "db1"} {
		if err := v.RestoreBackend(name, dump); err != nil {
			t.Fatal(err)
		}
		if got := countOn(t, engines[i], "SELECT COUNT(*) FROM item WHERE i_cost = 0"); got != 0 {
			t.Errorf("%s holds the update of a transaction whose COMMIT was refused", name)
		}
	}
}

// TestIntegrateBackendFailureLeavesPlacementUntouched: integrating a backend
// from a dump whose checkpoint the log does not know, or onto a backend that
// dies during its restore, fails — and must leave no trace: the new backend's
// declared tables do not appear in the placement, and the backend is not
// attached.
func TestIntegrateBackendFailureLeavesPlacementUntouched(t *testing.T) {
	v, _ := mkPartialVDB(t, 1, map[string][]int{"a": {0}}, 3, recovery.NewMemoryLog())
	dump, err := v.BackupBackend("db0", "cp-int")
	if err != nil {
		t.Fatal(err)
	}
	hostsBefore := fmt.Sprint(v.Replication().Hosts("a"))

	integrate := func(name string, d *recovery.Dump, plan *backend.FaultPlan) error {
		b := backend.New(backend.Config{
			Name:   name,
			Driver: &backend.EngineDriver{Engine: sqlengine.New(name)},
			Tables: []string{"a", "fresh"},
		})
		t.Cleanup(b.Close)
		b.SetFaultPlan(plan)
		return v.IntegrateBackend(b, d)
	}
	check := func(what string) {
		t.Helper()
		if got := fmt.Sprint(v.Replication().Hosts("a")); got != hostsBefore {
			t.Fatalf("%s: hosts of a = %s, were %s", what, got, hostsBefore)
		}
		if got := v.Replication().Hosts("fresh"); len(got) != 0 {
			t.Fatalf("%s: ghost hosts %v for a table only the failed backend declared", what, got)
		}
		if err := v.ValidatePlacement(); err != nil {
			t.Fatalf("%s: placement no longer validates: %v", what, err)
		}
		if n := len(v.Backends()); n != 1 {
			t.Fatalf("%s: %d backends attached, want 1", what, n)
		}
	}

	unknown := &recovery.Dump{Name: "never-logged", Tables: dump.Tables}
	if err := integrate("ghost0", unknown, nil); err == nil {
		t.Fatal("integration from a dump with an unknown checkpoint succeeded")
	}
	check("unknown checkpoint")

	crash := backend.NewFaultPlan(&backend.Rule{Kind: backend.OpDirect, AfterN: 2, Times: 1, Crash: true})
	if err := integrate("ghost1", dump, crash); err == nil {
		t.Fatal("integration onto a backend that crashed mid-restore succeeded")
	}
	check("failed restore")

	// And the success path declares, attaches and serves.
	if err := integrate("db1", dump, nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(v.Replication().Hosts("a")); got != "[db0 db1]" {
		t.Fatalf("hosts of a after integration = %s", got)
	}
	if err := v.ValidatePlacement(); err != nil {
		t.Fatal(err)
	}
}

// TestBackupOfDisabledBackendRefused: a backend that is not serving may have
// missed writes, so its content is not the log's state at any marker; a
// backup of it would seed later restores with an inexact copy (and used to
// re-enable it with no restore at all).
func TestBackupOfDisabledBackendRefused(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{RecoveryLog: recovery.NewMemoryLog(), ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	v.DisableBackend("db1")
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)")
	if _, err := v.BackupBackend("db1", "cp-stale"); !errors.Is(err, backend.ErrDisabled) {
		t.Fatalf("backup of a disabled backend: got %v, want ErrDisabled", err)
	}
	if b1, _ := v.Backend("db1"); b1.Enabled() {
		t.Fatal("the refused backup enabled the stale backend")
	}
}

// TestSoleBackendComesBack: a virtual database's only backend, disabled and
// re-integrated, has no peer to be compared with and nothing to have missed
// (writes were refused, unlogged, while it was out): it comes back as it is.
func TestSoleBackendComesBack(t *testing.T) {
	v, engines := mkVDB(t, 1, VDBConfig{RecoveryLog: recovery.NewMemoryLog(), ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)")
	v.DisableBackend("db0")
	if _, err := s.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (5, 'e', 50)", nil); !errors.Is(err, ErrNoWriteTarget) {
		t.Fatalf("write with the only backend down: %v", err)
	}
	if err := v.RestoreBackend("db0", nil); err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (6, 'f', 60)")
	if got := countOn(t, engines[0], "SELECT COUNT(*) FROM item"); got != 5 {
		t.Fatalf("rows = %d, want 5", got)
	}

	// With a peer attached but down, nothing says which of the two is
	// current: re-integration has no source and must refuse.
	v2, _ := mkVDB(t, 2, VDBConfig{RecoveryLog: recovery.NewMemoryLog(), ParallelTx: true}, seedSchema...)
	v2.DisableBackend("db0")
	v2.DisableBackend("db1")
	if err := v2.RestoreBackend("db0", nil); !errors.Is(err, ErrNoReintegrationSource) {
		t.Fatalf("re-integration with every peer down: got %v, want ErrNoReintegrationSource", err)
	}
}
