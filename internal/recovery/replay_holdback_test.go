package recovery

// Regression tests for cross-pass conflict-class ordering. Live execution
// applies writes of one conflict class in Seq order — a transaction's write
// holds the class ticket until commit, so a later conflicting auto-commit
// only runs after it. Multi-pass replay must reproduce that order even when
// a transaction's commit is not yet logged when a pass runs: later
// conflicting entries are held back (Pass.Deferred), not applied around it.

import "testing"

// TestReplayPassHoldsBackConflictingAuto: a bulk pass must not apply an
// auto-commit entry that follows an unresolved transaction's write on the
// same conflict class. Before holdback, the UPDATE applied in pass 1
// (matching zero rows) and the INSERT in pass 2 — the inverse of the live
// order — leaving v = 1 instead of 9.
func TestReplayPassHoldsBackConflictingAuto(t *testing.T) {
	l := NewMemoryLog()
	b := mkBackend(t, "hold", "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")

	l.Append(Entry{Class: ClassWrite, TxID: 9, SQL: "INSERT INTO t (id, v) VALUES (1, 1)",
		Tables: []string{"t"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, SQL: "UPDATE t SET v = 9 WHERE id = 1",
		Tables: []string{"t"}, V: FootprintVersion})

	pass, unresolved, applied, err := ReplayPassHosted(l, 0, nil, b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 || pass.Deferred != 1 {
		t.Fatalf("bulk pass applied=%d Deferred=%d, want 0 1", applied, pass.Deferred)
	}
	if len(unresolved) != 1 || unresolved[0] != 9 {
		t.Fatalf("unresolved = %v, want [9]", unresolved)
	}

	l.Append(Entry{Class: ClassCommit, TxID: 9, V: FootprintVersion})
	pass, _, applied, err = ReplayPassHosted(l, 0, pass, b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 || pass.Deferred != 0 {
		t.Fatalf("catch-up applied=%d Deferred=%d, want 2 0", applied, pass.Deferred)
	}
	res, err := b.DirectExec(nil, "SELECT v FROM t WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 9 {
		t.Fatalf("v = %v (err %v), want 9 — insert/update replayed out of order", res, err)
	}
}

// TestReplayPassDefersWholeTransactionGroup: a committed transaction is
// applied all-or-nothing, so one write held back behind an unresolved
// conflicting transaction defers the whole group — including its writes on
// disjoint tables, chained through the per-transaction key — and anything
// conflicting with those in turn. Disjoint classes still apply.
func TestReplayPassDefersWholeTransactionGroup(t *testing.T) {
	l := NewMemoryLog()
	b := mkBackend(t, "group",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
		"CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)",
		"CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO t (id, v) VALUES (1, 0)",
		"INSERT INTO a (id, v) VALUES (1, 1)")

	l.Append(Entry{Class: ClassWrite, TxID: 9, SQL: "UPDATE t SET v = 5 WHERE id = 1",
		Tables: []string{"t"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, TxID: 7, SQL: "UPDATE t SET v = v + 10 WHERE id = 1",
		Tables: []string{"t"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, TxID: 7, SQL: "UPDATE a SET v = 2 WHERE id = 1",
		Tables: []string{"a"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassCommit, TxID: 7, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, SQL: "UPDATE a SET v = v * 3 WHERE id = 1",
		Tables: []string{"a"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, SQL: "INSERT INTO u (id, v) VALUES (1, 1)",
		Tables: []string{"u"}, V: FootprintVersion})

	pass, unresolved, applied, err := ReplayPassHosted(l, 0, nil, b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only the write on u is disjoint from the held-back chain: tx 9 holds
	// t, which defers tx 7 whole (t and a), which defers the a update.
	if applied != 1 || pass.Deferred != 2 {
		t.Fatalf("bulk pass applied=%d Deferred=%d, want 1 2", applied, pass.Deferred)
	}
	if len(unresolved) != 1 || unresolved[0] != 9 {
		t.Fatalf("unresolved = %v, want [9]", unresolved)
	}

	l.Append(Entry{Class: ClassCommit, TxID: 9, V: FootprintVersion})
	pass, _, applied, err = ReplayPassHosted(l, 0, pass, b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 4 || pass.Deferred != 0 {
		t.Fatalf("catch-up applied=%d Deferred=%d, want 4 0", applied, pass.Deferred)
	}
	res, err := b.DirectExec(nil, "SELECT v FROM t WHERE id = 1")
	if err != nil || res.Rows[0][0].I != 15 {
		t.Fatalf("t.v = %v (err %v), want 15 (tx9 then tx7, live order)", res, err)
	}
	res, err = b.DirectExec(nil, "SELECT v FROM a WHERE id = 1")
	if err != nil || res.Rows[0][0].I != 6 {
		t.Fatalf("a.v = %v (err %v), want 6 (tx7 then auto)", res, err)
	}

	// Unchanged log: nothing applies twice.
	if _, _, applied, err = ReplayPassHosted(l, 0, pass, b, 1, nil); err != nil || applied != 0 {
		t.Fatalf("idle pass applied %d err %v, want 0 nil", applied, err)
	}
}

// TestReplayPassDeadTransactionLiftsHoldback: a transaction the caller has
// proven abandoned (unresolved in the log, inactive cluster-wide) replays
// as rolled back once marked in Pass.TxDead — it stops being reported
// unresolved and stops holding back its conflict class.
func TestReplayPassDeadTransactionLiftsHoldback(t *testing.T) {
	l := NewMemoryLog()
	b := mkBackend(t, "dead", "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")

	l.Append(Entry{Class: ClassWrite, TxID: 4, SQL: "INSERT INTO t (id, v) VALUES (1, 1)",
		Tables: []string{"t"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, SQL: "INSERT INTO t (id, v) VALUES (2, 2)",
		Tables: []string{"t"}, V: FootprintVersion})

	pass, unresolved, applied, err := ReplayPassHosted(l, 0, nil, b, 1, nil)
	if err != nil || applied != 0 || pass.Deferred != 1 || len(unresolved) != 1 {
		t.Fatalf("bulk pass applied=%d Deferred=%d unresolved=%v err=%v, want 0 1 [4] nil",
			applied, pass.Deferred, unresolved, err)
	}

	pass.TxDead = map[uint64]bool{4: true}
	pass, unresolved, applied, err = ReplayPassHosted(l, 0, pass, b, 1, nil)
	if err != nil || applied != 1 || pass.Deferred != 0 || len(unresolved) != 0 {
		t.Fatalf("after TxDead: applied=%d Deferred=%d unresolved=%v err=%v, want 1 0 [] nil",
			applied, pass.Deferred, unresolved, err)
	}
	res, err := b.DirectExec(nil, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v (err %v), want 1 (only the auto-commit)", res, err)
	}
	res, err = b.DirectExec(nil, "SELECT COUNT(*) FROM t WHERE id = 1")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("dead transaction's write leaked: %v %v", res, err)
	}
}

// TestReplayPassFrontierSplitsAroundDeferral: a held-back auto-commit entry
// caps Pass.Last below itself so the next pass revisits it, while a later
// disjoint auto-commit that did apply is remembered in Pass.AutoDone —
// neither skipped nor applied twice.
func TestReplayPassFrontierSplitsAroundDeferral(t *testing.T) {
	l := NewMemoryLog()
	b := mkBackend(t, "front",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
		"CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)")

	l.Append(Entry{Class: ClassWrite, TxID: 3, SQL: "INSERT INTO t (id, v) VALUES (1, 1)",
		Tables: []string{"t"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, SQL: "UPDATE t SET v = 2 WHERE id = 1",
		Tables: []string{"t"}, V: FootprintVersion})
	l.Append(Entry{Class: ClassWrite, SQL: "INSERT INTO u (id, v) VALUES (1, 1)",
		Tables: []string{"u"}, V: FootprintVersion})

	pass, _, applied, err := ReplayPassHosted(l, 0, nil, b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || pass.Deferred != 1 {
		t.Fatalf("bulk pass applied=%d Deferred=%d, want 1 1 (u insert only)", applied, pass.Deferred)
	}
	if pass.Last != 1 || !pass.AutoDone[3] {
		t.Fatalf("Last=%d AutoDone=%v, want Last=1 AutoDone[3]", pass.Last, pass.AutoDone)
	}

	l.Append(Entry{Class: ClassCommit, TxID: 3, V: FootprintVersion})
	pass, _, applied, err = ReplayPassHosted(l, 0, pass, b, 1, nil)
	if err != nil || applied != 2 || pass.Deferred != 0 {
		t.Fatalf("catch-up applied=%d Deferred=%d err=%v, want 2 0 nil", applied, pass.Deferred, err)
	}
	res, err := b.DirectExec(nil, "SELECT v FROM t WHERE id = 1")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("t.v = %v (err %v), want 2", res, err)
	}
	res, err = b.DirectExec(nil, "SELECT COUNT(*) FROM u")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("u rows = %v (err %v), want exactly 1", res, err)
	}
}
