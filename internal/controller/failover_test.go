package controller

import (
	"errors"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

// TestReadFailoverDisablesFailedBackend: a backend failing mid-read with a
// non-semantic fault is disabled and the read retries transparently on a
// replica — the caller never sees the fault.
func TestReadFailoverDisablesFailedBackend(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	bad := v.Backends()[0]
	bad.InjectFailure(errors.New("io: connection reset"))

	// Every read must succeed regardless of which backend the balancer
	// picks first.
	for i := 0; i < 4; i++ {
		res, err := s.Exec("SELECT COUNT(*) FROM item", nil)
		if err != nil {
			t.Fatalf("read %d did not fail over: %v", i, err)
		}
		if res.Rows[0][0].I != 3 {
			t.Fatalf("read %d returned %v rows", i, res.Rows[0][0])
		}
	}
	if bad.Enabled() {
		t.Fatal("backend that failed a read was not disabled")
	}
	if v.StatsSnapshot().BackendsDisabled != 1 {
		t.Errorf("disable counter = %d, want 1", v.StatsSnapshot().BackendsDisabled)
	}
	// The survivor keeps serving.
	if res := exec(t, s, "SELECT COUNT(*) FROM item"); res.Rows[0][0].I != 3 {
		t.Fatalf("survivor read: %v", res.Rows[0][0])
	}
}

// TestPartialWriteSuccessStandsOnSurvivors: one backend fails a write; the
// operation succeeds on the survivors (no 2PC, §2.4.1), the caller gets the
// successful result, and the failed backend is disabled via the write
// failure callback.
func TestPartialWriteSuccessStandsOnSurvivors(t *testing.T) {
	v, engines := mkVDB(t, 3, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	bad := v.Backends()[2]
	bad.InjectFailure(errors.New("disk died"))

	res, err := s.Exec("INSERT INTO item (i_id, i_title, i_cost) VALUES (50, 'survivor', 5)", nil)
	if err != nil {
		t.Fatalf("partial write did not stand on survivors: %v", err)
	}
	if res == nil || res.RowsAffected != 1 {
		t.Fatalf("partial write result: %+v", res)
	}
	for i := 0; i < 2; i++ {
		if n := countOn(t, engines[i], "SELECT COUNT(*) FROM item WHERE i_id = 50"); n != 1 {
			t.Fatalf("survivor %d missing the row", i)
		}
	}
	deadline := time.Now().Add(time.Second)
	for bad.Enabled() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bad.Enabled() {
		t.Fatal("failed backend not disabled via callback")
	}
}

// TestErrorClassificationTyped: failover-vs-semantic classification works
// through errors.Is sentinels, not message sniffing — engine statement
// errors (including wrapped and sentinel ones) and parse errors are
// semantic; injected faults are not.
func TestErrorClassificationTyped(t *testing.T) {
	semantic := []error{
		sqlengine.ErrLockTimeout,
		sqlengine.ErrNoTransaction,
		&sqlengine.TableNotFoundError{Table: "missing"},
		backend.ErrStatement,
	}
	if _, err := sqlparser.Parse("SELECT FROM FROM"); err == nil {
		t.Fatal("bad SQL parsed")
	} else {
		semantic = append(semantic, err)
	}
	for _, err := range semantic {
		if !IsSemanticError(err) {
			t.Errorf("%v not classified semantic", err)
		}
	}
	for _, err := range []error{
		errors.New("engine: impostor — a prefix is not a classification"),
		errors.New("disk died"),
		backend.ErrDisabled,
	} {
		if IsSemanticError(err) {
			t.Errorf("%v wrongly classified semantic", err)
		}
	}

	// End to end: a missing table surfaced through a real engine keeps its
	// classification across the driver boundary.
	e := sqlengine.New("cls")
	ses := e.NewSession()
	_, err := ses.ExecSQL("SELECT * FROM nope")
	ses.Close()
	if err == nil || !IsSemanticError(err) {
		t.Fatalf("engine error lost its sentinel: %v", err)
	}

	// Value-level failures (division by zero, bad conversions) fail
	// identically on every replica too: a single bad query must never
	// disable the cluster's backends.
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	s := openSession(t, v)
	if _, err := s.Exec("UPDATE item SET i_cost = 1/0", nil); err == nil {
		t.Fatal("division by zero succeeded")
	} else if !IsSemanticError(err) {
		t.Fatalf("division by zero classified as backend fault: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let any (wrong) disable callbacks land
	for _, b := range v.Backends() {
		if !b.Enabled() {
			t.Fatal("value error disabled a backend")
		}
	}
}

// TestRecoveryLogRecordsConflictFootprint: every sequenced operation logs
// the conflict class it was ordered under — a write its table set, a commit
// its transaction's accumulated footprint — and the recorded sequence is a
// valid serialization (conflicting entries are ordered; Seq is strictly
// increasing).
func TestRecoveryLogRecordsConflictFootprint(t *testing.T) {
	log := recovery.NewMemoryLog()
	v, _ := mkVDB(t, 1, VDBConfig{ParallelTx: true, RecoveryLog: log},
		append(seedSchema, "CREATE TABLE other (id INTEGER PRIMARY KEY)")...)
	s := openSession(t, v)
	exec(t, s, "INSERT INTO other (id) VALUES (1)")
	exec(t, s, "BEGIN")
	exec(t, s, "UPDATE item SET i_cost = 1 WHERE i_id = 1")
	exec(t, s, "INSERT INTO other (id) VALUES (2)")
	exec(t, s, "COMMIT")

	entries, err := log.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[recovery.EntryClass][]recovery.Entry{}
	var lastSeq uint64
	for _, e := range entries {
		if e.Seq <= lastSeq {
			t.Fatalf("sequence not strictly increasing at %+v", e)
		}
		lastSeq = e.Seq
		byClass[e.Class] = append(byClass[e.Class], e)
	}
	writes := byClass[recovery.ClassWrite]
	if len(writes) != 3 {
		t.Fatalf("writes logged = %d, want 3", len(writes))
	}
	if len(writes[0].Tables) != 1 || writes[0].Tables[0] != "other" {
		t.Fatalf("auto write footprint = %v", writes[0].Tables)
	}
	commits := byClass[recovery.ClassCommit]
	if len(commits) != 1 {
		t.Fatalf("commits logged = %d", len(commits))
	}
	// The commit's footprint is the union of the transaction's writes.
	if got := commits[0].Tables; len(got) != 2 || got[0] != "item" || got[1] != "other" {
		t.Fatalf("commit footprint = %v, want [item other]", got)
	}
	// The commit conflicts with both its writes; the two tx writes are on
	// disjoint tables but share the transaction, so they conflict too.
	for _, w := range writes[1:] {
		if !commits[0].ConflictsWith(&w) {
			t.Errorf("commit does not conflict with tx write %v", w.Tables)
		}
	}
	if writes[0].ConflictsWith(&writes[1]) {
		t.Errorf("disjoint auto write and tx item write reported conflicting: %v vs %v",
			writes[0].Tables, writes[1].Tables)
	}

	// A transaction that performed DDL was sequenced gate-exclusive; its
	// commit must carry the global marker so the recorded order keeps it
	// conflicting with everything.
	exec(t, s, "BEGIN")
	exec(t, s, "CREATE TABLE brand_new (id INTEGER PRIMARY KEY)")
	exec(t, s, "COMMIT")
	entries, err = log.Since(lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	var ddlCommit *recovery.Entry
	for i := range entries {
		if entries[i].Class == recovery.ClassCommit {
			ddlCommit = &entries[i]
		}
	}
	if ddlCommit == nil || !ddlCommit.Global {
		t.Fatalf("DDL transaction's commit not marked global: %+v", ddlCommit)
	}
	if !ddlCommit.ConflictsWith(&writes[0]) {
		t.Fatal("global commit must conflict with every write")
	}
}
