package controller

// Bringing a copy to exact after the recovery log has forgotten entries. The
// memory log keeps only what some pin holds, in chunks of 4096 entries; each
// scenario writes three chunks so that whatever no pin holds is gone, and
// checks that it is.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// forgetWrites is three of the memory log's chunks.
const forgetWrites = 3 * 4096

func mkForgetVDB(t *testing.T) (*VirtualDatabase, []*sqlengine.Engine, *recovery.MemoryLog) {
	t.Helper()
	log := recovery.NewMemoryLog()
	v, engines := mkVDB(t, 2, VDBConfig{RecoveryLog: log, ParallelTx: true},
		"CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO a (id, v) VALUES (1, 0)",
		"INSERT INTO a (id, v) VALUES (2, 0)",
		"CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO b (id, v) VALUES (1, 0)")
	return v, engines, log
}

// writeMany issues n auto-commit writes: increments of row 1, and every
// hundredth an insert with an id from firstID on.
func writeMany(t *testing.T, s *Session, firstID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sql := "UPDATE a SET v = v + 1 WHERE id = 1"
		if i%100 == 0 {
			sql = fmt.Sprintf("INSERT INTO a (id, v) VALUES (%d, %d)", firstID+i, i)
		}
		exec(t, s, sql)
	}
}

// requireForgot fails unless the log has forgotten entries after seq: a
// scenario whose log kept everything tests nothing.
func requireForgot(t *testing.T, log recovery.Log, seq uint64) {
	t.Helper()
	if _, err := log.Since(seq); !errors.Is(err, recovery.ErrLogTruncated) {
		t.Fatalf("Since(%d) = %v: the log still holds its window, want ErrLogTruncated", seq, err)
	}
}

// requireSame checks both replicas hold identical copies of every table.
func requireSame(t *testing.T, engines []*sqlengine.Engine) {
	t.Helper()
	for _, tbl := range []string{"a", "b"} {
		if want, got := sortedTableDump(t, engines[0], tbl), sortedTableDump(t, engines[1], tbl); got != want {
			t.Fatalf("replicas diverged on %s:\n--- db0:\n%s\n--- db1:\n%s", tbl, want, got)
		}
	}
}

// TestLogForgetsReintegrationWithoutCachedDump: with no dump cached and no
// pin, the log forgets the writes db1 missed; re-integration snapshots a
// donor at a fresh marker instead and comes back byte-identical.
func TestLogForgetsReintegrationWithoutCachedDump(t *testing.T) {
	v, engines, log := mkForgetVDB(t)
	s := openSession(t, v)
	v.DisableBackend("db1")
	writeMany(t, s, 1000, forgetWrites)
	requireForgot(t, log, 0)
	if err := v.RestoreBackend("db1", nil); err != nil {
		t.Fatal(err)
	}
	requireSame(t, engines)
}

// TestLogForgetsNothingTheCachedDumpPins: the log forgets what came before
// a backup but keeps the backup's replay window, however long, because the
// cached dump pins it; a restore from that dump is exact.
func TestLogForgetsNothingTheCachedDumpPins(t *testing.T) {
	v, engines, log := mkForgetVDB(t)
	s := openSession(t, v)
	writeMany(t, s, 1000, 4096)
	dump, err := v.BackupBackend("db0", "cp")
	if err != nil {
		t.Fatal(err)
	}
	v.DisableBackend("db1")
	writeMany(t, s, 100000, forgetWrites)
	requireForgot(t, log, 0)
	if window, err := log.Since(dump.Seq); err != nil || len(window) != forgetWrites {
		t.Fatalf("window after the cached dump: %d entries, %v; want %d", len(window), err, forgetWrites)
	}
	if err := v.RestoreBackend("db1", dump); err != nil {
		t.Fatal(err)
	}
	requireSame(t, engines)
}

// TestLogForgetsFirstBackupOnceSecondReplacesIt: a newer backup replaces the
// cached dump and releases the older one's window. A restore from the older
// dump is then refused with recovery.ErrLogTruncated before anything is
// disabled, and the backend keeps serving; the newer dump restores exact.
func TestLogForgetsFirstBackupOnceSecondReplacesIt(t *testing.T) {
	v, engines, log := mkForgetVDB(t)
	s := openSession(t, v)
	first, err := v.BackupBackend("db0", "first")
	if err != nil {
		t.Fatal(err)
	}
	writeMany(t, s, 1000, forgetWrites)
	second, err := v.BackupBackend("db0", "second")
	if err != nil {
		t.Fatal(err)
	}
	requireForgot(t, log, first.Seq)

	if err := v.RestoreBackend("db1", first); !errors.Is(err, recovery.ErrLogTruncated) {
		t.Fatalf("restore from a dump whose window is gone: got %v, want ErrLogTruncated", err)
	}
	b1, _ := v.Backend("db1")
	if !b1.Enabled() {
		t.Fatalf("the refused restore left db1 %s", b1.State())
	}
	exec(t, s, "UPDATE a SET v = v + 7 WHERE id = 2")
	requireSame(t, engines)

	v.DisableBackend("db1")
	exec(t, s, "UPDATE a SET v = v + 1 WHERE id = 2")
	if err := v.RestoreBackend("db1", second); err != nil {
		t.Fatal(err)
	}
	requireSame(t, engines)
}

// TestLogForgetsUnderAnOpenTransaction: no pin guards a transaction, so the
// log forgets its first write while it is still open. That is safe because
// every replay starts at a marker placed inside quiesced: re-integration
// waits there until the transaction commits, and the snapshot it then takes
// holds the whole transaction.
func TestLogForgetsUnderAnOpenTransaction(t *testing.T) {
	v, engines, log := mkForgetVDB(t)
	tx := openSession(t, v)
	exec(t, tx, "BEGIN")
	exec(t, tx, "UPDATE b SET v = v + 100 WHERE id = 1")
	s := openSession(t, v)
	writeMany(t, s, 1000, forgetWrites)
	requireForgot(t, log, 0)

	v.DisableBackend("db1")
	done := make(chan error, 1)
	go func() { done <- v.RestoreBackend("db1", nil) }()
	select {
	case err := <-done:
		t.Fatalf("re-integration finished with a write transaction open: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	exec(t, tx, "UPDATE b SET v = v + 10 WHERE id = 1")
	exec(t, tx, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	requireSame(t, engines)
	if got := countOn(t, engines[1], "SELECT v FROM b WHERE id = 1"); got != 110 {
		t.Fatalf("db1 holds v = %d for the transaction's row, want 110", got)
	}
}
