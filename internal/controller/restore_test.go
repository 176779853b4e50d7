package controller

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlval"
)

// TestRestoreBackendKeepsTimestampPrecision: backends execute a statement's
// bound values at nanosecond precision, and a replica rebuilt from a dump and
// the recovery log must hold the same values — a NOW() and a time parameter
// included, not their whole seconds.
func TestRestoreBackendKeepsTimestampPrecision(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true},
		"CREATE TABLE ts (id INTEGER PRIMARY KEY, at TIMESTAMP)")
	s := openSession(t, v)
	dump, err := v.BackupBackend("db0", "cp-ts")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO ts (id, at) VALUES (1, NOW())")
	stamp := time.Date(2024, 1, 2, 3, 4, 5, 123456789, time.UTC)
	if _, err := s.Exec("INSERT INTO ts (id, at) VALUES (?, ?)", []sqlval.Value{sqlval.Int(2), sqlval.Time(stamp)}); err != nil {
		t.Fatal(err)
	}
	_, rows, err := engines[0].SnapshotTable("ts")
	if err != nil || len(rows) != 2 || !rows[1][1].Time().Equal(stamp) {
		t.Fatalf("live replica holds %v (err %v), want the bound time %v in row 2", rows, err, stamp)
	}

	if err := v.RestoreBackend("db1", dump); err != nil {
		t.Fatal(err)
	}
	if want, got := sortedTableDump(t, engines[0], "ts"), sortedTableDump(t, engines[1], "ts"); got != want {
		t.Fatalf("replica rebuilt from the log differs:\n--- live:\n%s\n--- rebuilt:\n%s", want, got)
	}
}

// TestMacroWritesReplayExactly: a copy rebuilt from the memory log holds
// what the live replicas hold after writes that call macros, column types
// included. The log keeps each such write's Bound — the slotted tree and
// the vector every replica applied — and replay executes it as it is, so
// the CTAS's NOW() and CURRENT_DATE() columns come back TIMESTAMP, not the
// VARCHAR their rendered literals would make. A file log still keeps the
// rendered text, and still loses those types, until its record carries
// the vector.
func TestMacroWritesReplayExactly(t *testing.T) {
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: recovery.NewMemoryLog(), ParallelTx: true},
		"CREATE TABLE ts (id INTEGER PRIMARY KEY, at TIMESTAMP)")
	s := openSession(t, v)
	dump, err := v.BackupBackend("db0", "cp-macros")
	if err != nil {
		t.Fatal(err)
	}
	v.DisableBackend("db1")
	exec(t, s, "CREATE TABLE c AS SELECT NOW() AS at, RAND() AS r, CURRENT_DATE() AS d")
	exec(t, s, "INSERT INTO ts (id, at) VALUES (1, NOW())")
	if err := v.RestoreBackend("db1", dump); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c", "ts"} {
		want, wantRows, err := engines[0].SnapshotTable(name)
		if err != nil {
			t.Fatal(err)
		}
		got, gotRows, err := engines[1].SnapshotTable(name)
		if err != nil {
			t.Fatalf("rebuilt copy: %v", err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Errorf("%s: rebuilt copy has columns %+v, live replica %+v", name, got.Columns, want.Columns)
		}
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Errorf("%s: rebuilt copy holds %v, live replica %v", name, gotRows, wantRows)
		}
	}
}

// TestRestoreBackendRefusesDumpMissingOwnTable: an operator's dump that
// lacks a table the backend hosts would leave the backend's own copy of it in
// place and replay the log from the dump's marker over it, applying every
// write since the marker a second time. RestoreBackend refuses such a dump
// with ErrIncompleteDump before it disables anything.
func TestRestoreBackendRefusesDumpMissingOwnTable(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true},
		"CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)",
		"CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO a (id, v) VALUES (1, 0)",
		"INSERT INTO b (id, v) VALUES (1, 0)")
	s := openSession(t, v)
	full, err := v.BackupBackend("db0", "cp-partial")
	if err != nil {
		t.Fatal(err)
	}
	partial := *full
	partial.Tables = nil
	for _, td := range full.Tables {
		if td.Name != "b" {
			partial.Tables = append(partial.Tables, td)
		}
	}
	exec(t, s, "UPDATE a SET v = v + 1 WHERE id = 1")
	exec(t, s, "UPDATE b SET v = v + 1 WHERE id = 1")

	err = v.RestoreBackend("db1", &partial)
	if !errors.Is(err, ErrIncompleteDump) {
		t.Fatalf("restore from a dump without table b: got %v, want ErrIncompleteDump", err)
	}
	b1, _ := v.Backend("db1")
	if !b1.Enabled() {
		t.Fatalf("the refused restore left db1 %s", b1.State())
	}
	if got := countOn(t, engines[1], "SELECT v FROM b WHERE id = 1"); got != 1 {
		t.Fatalf("db1's b.v = %d after the refused restore, want 1", got)
	}

	// The complete dump is accepted and lands exact.
	if err := v.RestoreBackend("db1", full); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"a", "b"} {
		if want, got := sortedTableDump(t, engines[0], tbl), sortedTableDump(t, engines[1], tbl); got != want {
			t.Fatalf("table %s diverged:\n--- db0:\n%s\n--- db1:\n%s", tbl, want, got)
		}
	}
}

// TestRestoreRefusesDumpOfReusedCheckpointName: a checkpoint name marks one
// log position at a time. A dump taken under a name a later backup reused
// must not replay from the newer marker: that skips the writes between the
// two and enables an inexact copy. RestoreBackend and IntegrateBackend refuse
// it with ErrCheckpointReused before they change anything; the newer dump
// still restores.
func TestRestoreRefusesDumpOfReusedCheckpointName(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true},
		"CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO a (id, v) VALUES (1, 0)",
		"INSERT INTO a (id, v) VALUES (2, 0)",
		"INSERT INTO a (id, v) VALUES (3, 0)")
	s := openSession(t, v)
	first, err := v.BackupBackend("db0", "nightly")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO a (id, v) VALUES (4, 0)")
	second, err := v.BackupBackend("db0", "nightly")
	if err != nil {
		t.Fatal(err)
	}
	exec(t, s, "INSERT INTO a (id, v) VALUES (5, 0)")

	if err := v.RestoreBackend("db1", first); !errors.Is(err, ErrCheckpointReused) {
		t.Fatalf("restore from the first dump of a reused name: got %v, want ErrCheckpointReused", err)
	}
	b1, _ := v.Backend("db1")
	if !b1.Enabled() {
		t.Fatalf("the refused restore left db1 %s", b1.State())
	}
	if got := countOn(t, engines[1], "SELECT COUNT(*) FROM a"); got != 5 {
		t.Fatalf("db1 holds %d rows after the refused restore, want 5", got)
	}
	eNew := sqlengine.New("db-new")
	bNew := backend.New(backend.Config{Name: "db-new", Driver: &backend.EngineDriver{Engine: eNew}})
	t.Cleanup(bNew.Close)
	if err := v.IntegrateBackend(bNew, first); !errors.Is(err, ErrCheckpointReused) {
		t.Fatalf("integrate from the first dump of a reused name: got %v, want ErrCheckpointReused", err)
	}
	if n := len(v.Backends()); n != 2 {
		t.Fatalf("the refused integration left %d backends, want 2", n)
	}

	if err := v.RestoreBackend("db1", second); err != nil {
		t.Fatal(err)
	}
	if want, got := sortedTableDump(t, engines[0], "a"), sortedTableDump(t, engines[1], "a"); got != want {
		t.Fatalf("restore from the second dump diverged:\n--- db0:\n%s\n--- db1:\n%s", want, got)
	}
}
