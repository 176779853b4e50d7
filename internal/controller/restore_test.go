package controller

import (
	"errors"
	"testing"
	"time"

	"cjdbc/internal/recovery"
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
