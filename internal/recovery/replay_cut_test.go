package recovery

// A catch-up pass replays the log up to one consistent cut: the last Seq
// before the first hosted write of a transaction with no demarcation logged.
// Live execution applies the writes of one conflict class in Seq order — a
// transaction's write holds the class until commit, so a later conflicting
// auto-commit runs after it — and because every pass applies a prefix of the
// log, replay keeps that order across passes too.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func write(tx uint64, sql string, tables ...string) Entry {
	return Entry{Class: ClassWrite, TxID: tx, SQL: sql, Tables: tables, V: FootprintVersion}
}

func commit(tx uint64) Entry { return Entry{Class: ClassCommit, TxID: tx, V: FootprintVersion} }

// passWant is what one pass must return.
type passWant struct {
	cut        uint64
	applied    int
	unresolved []uint64
}

func checkPass(t *testing.T, label string, want passWant, cut uint64, unresolved []uint64, applied int, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if cut != want.cut || applied != want.applied || fmt.Sprint(unresolved) != fmt.Sprint(want.unresolved) {
		t.Fatalf("%s: cut=%d applied=%d unresolved=%v, want %d %d %v",
			label, cut, applied, unresolved, want.cut, want.applied, want.unresolved)
	}
}

// cutCase is two passes over a log in which a transaction is open during the
// first: the first pass ends at that transaction's first write, and the
// second, from the first's cut, applies the rest in live order once the
// transaction is committed or abandoned. A third pass over the unchanged log
// applies nothing and keeps the cut.
type cutCase struct {
	schema []string
	log    []Entry
	then   []Entry // appended between the first and second pass
	// abandon is treated as abandoned by the second pass.
	abandon uint64
	first   passWant
	second  passWant
	checks  map[string]int64 // query -> value after the second pass
}

func runCutCase(t *testing.T, c cutCase) {
	t.Helper()
	l := NewMemoryLog()
	b := mkBackend(t, t.Name(), c.schema...)
	for _, e := range c.log {
		l.Append(e)
	}
	cut, unresolved, applied, err := ReplayPassHosted(l, 0, b, 1, nil, nil)
	checkPass(t, "first pass", c.first, cut, unresolved, applied, err)

	for _, e := range c.then {
		l.Append(e)
	}
	abandoned := func(tx uint64) bool { return tx == c.abandon }
	cut, unresolved, applied, err = ReplayPassHosted(l, cut, b, 1, nil, abandoned)
	checkPass(t, "second pass", c.second, cut, unresolved, applied, err)
	for q, want := range c.checks {
		res, err := b.DirectExec(nil, q)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != want {
			t.Fatalf("%s = %v (err %v), want %d", q, res, err, want)
		}
	}

	cut, unresolved, applied, err = ReplayPassHosted(l, cut, b, 1, nil, abandoned)
	checkPass(t, "idle pass", passWant{cut: c.second.cut}, cut, unresolved, applied, err)
}

// TestReplayPassHoldsBackConflictingAuto: a conflicting auto-commit waits for
// the open transaction. Applying the UPDATE before the transaction's INSERT
// would match zero rows and leave v = 1.
func TestReplayPassHoldsBackConflictingAuto(t *testing.T) {
	runCutCase(t, cutCase{
		schema: []string{"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"},
		log: []Entry{
			write(9, "INSERT INTO t (id, v) VALUES (1, 1)", "t"),
			write(0, "UPDATE t SET v = 9 WHERE id = 1", "t"),
		},
		then:   []Entry{commit(9)},
		first:  passWant{cut: 0, applied: 0, unresolved: []uint64{9}},
		second: passWant{cut: 3, applied: 2},
		checks: map[string]int64{"SELECT v FROM t WHERE id = 1": 9},
	})
}

// TestReplayPassDefersWholeTransactionGroup: a committed transaction behind
// the open one applies whole. Tx 9 then tx 7 on t, tx 7 then the auto-commit
// on a: the live order on both classes.
func TestReplayPassDefersWholeTransactionGroup(t *testing.T) {
	runCutCase(t, cutCase{
		schema: []string{
			"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
			"CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)",
			"CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)",
			"INSERT INTO t (id, v) VALUES (1, 0)",
			"INSERT INTO a (id, v) VALUES (1, 1)",
		},
		log: []Entry{
			write(9, "UPDATE t SET v = 5 WHERE id = 1", "t"),
			write(7, "UPDATE t SET v = v + 10 WHERE id = 1", "t"),
			write(7, "UPDATE a SET v = 2 WHERE id = 1", "a"),
			commit(7),
			write(0, "UPDATE a SET v = v * 3 WHERE id = 1", "a"),
			write(0, "INSERT INTO u (id, v) VALUES (1, 1)", "u"),
		},
		then:   []Entry{commit(9)},
		first:  passWant{cut: 0, applied: 0, unresolved: []uint64{9}},
		second: passWant{cut: 7, applied: 5},
		checks: map[string]int64{
			"SELECT v FROM t WHERE id = 1": 15,
			"SELECT v FROM a WHERE id = 1": 6,
			"SELECT COUNT(*) FROM u":       1,
		},
	})
}

// TestReplayPassDeadTransactionLiftsHoldback: an abandoned transaction
// replays as rolled back — its write never lands, and the entries behind it
// apply.
func TestReplayPassDeadTransactionLiftsHoldback(t *testing.T) {
	runCutCase(t, cutCase{
		schema:  []string{"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"},
		log:     []Entry{write(4, "INSERT INTO t (id, v) VALUES (1, 1)", "t"), write(0, "INSERT INTO t (id, v) VALUES (2, 2)", "t")},
		abandon: 4,
		first:   passWant{cut: 0, applied: 0, unresolved: []uint64{4}},
		second:  passWant{cut: 2, applied: 1},
		checks: map[string]int64{
			"SELECT COUNT(*) FROM t":              1,
			"SELECT COUNT(*) FROM t WHERE id = 1": 0,
		},
	})
}

// TestReplayPassFrontierSplitsAroundDeferral: entries after the open write
// wait for the cut, disjoint ones included; the disjoint INSERT on u applies
// exactly once.
func TestReplayPassFrontierSplitsAroundDeferral(t *testing.T) {
	runCutCase(t, cutCase{
		schema: []string{
			"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)",
			"CREATE TABLE u (id INTEGER PRIMARY KEY, v INTEGER)",
		},
		log: []Entry{
			write(3, "INSERT INTO t (id, v) VALUES (1, 1)", "t"),
			write(0, "UPDATE t SET v = 2 WHERE id = 1", "t"),
			write(0, "INSERT INTO u (id, v) VALUES (1, 1)", "u"),
		},
		then:   []Entry{commit(3)},
		first:  passWant{cut: 0, applied: 0, unresolved: []uint64{3}},
		second: passWant{cut: 4, applied: 3},
		checks: map[string]int64{
			"SELECT v FROM t WHERE id = 1": 2,
			"SELECT COUNT(*) FROM u":       1,
		},
	})
}

// TestPropertyCutPassesMatchOneShotReplay grows a randomized log in steps —
// auto-commit writes, DDL, transactions that stay open across several steps
// before they commit or roll back — and runs one pass after each step,
// starting from the previous pass's cut. Once every transaction is resolved,
// the backend must be byte-identical to a one-shot sequential replay of the
// final log, with every entry applied exactly once.
func TestPropertyCutPassesMatchOneShotReplay(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)

	iters := 6
	if testing.Short() {
		iters = 2
	}
	for iter := 0; iter < iters; iter++ {
		nTables := rng.Intn(4) + 2
		schema := make([]string, nTables)
		for i := range schema {
			schema[i] = fmt.Sprintf("CREATE TABLE t%d (id INTEGER PRIMARY KEY AUTO_INCREMENT, v INTEGER, w VARCHAR)", i)
		}
		l := NewMemoryLog()
		b := mkBackend(t, fmt.Sprintf("passes%d", iter), schema...)

		// open maps a transaction without a demarcation to the tables it
		// wrote; nextTx numbers the next one.
		open := map[uint64]map[string]bool{}
		nextTx, ddl, op := uint64(100), 0, 0
		writeSQL := func(tbl string) string {
			op++
			switch rng.Intn(3) {
			case 0:
				// Reflections about different points do not commute.
				return fmt.Sprintf("UPDATE %s SET v = %d - v WHERE id <= %d", tbl, op%7, op%5+1)
			case 1:
				return fmt.Sprintf("DELETE FROM %s WHERE v = %d", tbl, op%4)
			default:
				return fmt.Sprintf("INSERT INTO %s (v, w) VALUES (%d, 'op%d')", tbl, op%10, op)
			}
		}
		openTxs := func() []uint64 {
			var txs []uint64
			for tx := range open {
				txs = append(txs, tx)
			}
			sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
			return txs
		}
		resolve := func(tx uint64, class EntryClass) {
			var foot []string
			for tbl := range open[tx] {
				foot = append(foot, tbl)
			}
			sort.Strings(foot)
			l.Append(Entry{TxID: tx, Class: class, Tables: foot, V: FootprintVersion})
			delete(open, tx)
		}

		var cut uint64
		total := 0
		pass := func(label string) []uint64 {
			next, unresolved, applied, err := ReplayPassHosted(l, cut, b, rng.Intn(4)+1, nil, nil)
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, label, err)
			}
			if next < cut {
				t.Fatalf("iter %d %s: cut went back from %d to %d", iter, label, cut, next)
			}
			cut, total = next, total+applied
			return unresolved
		}

		steps := rng.Intn(20) + 10
		for step := 0; step < steps; step++ {
			for k := rng.Intn(10) + 1; k > 0; k-- {
				tbl := fmt.Sprintf("t%d", rng.Intn(nTables))
				txs := openTxs()
				switch r := rng.Intn(100); {
				case r < 4:
					l.Append(Entry{Class: ClassWrite, Global: true, V: FootprintVersion,
						SQL: fmt.Sprintf("CREATE TABLE x%d (id INTEGER PRIMARY KEY AUTO_INCREMENT, v INTEGER)", ddl)})
					ddl++
				case r < 20:
					open[nextTx] = map[string]bool{}
					l.Append(Entry{TxID: nextTx, Class: ClassBegin})
					nextTx++
				case r < 50 && len(txs) > 0:
					tx := txs[rng.Intn(len(txs))]
					open[tx][tbl] = true
					l.Append(write(tx, writeSQL(tbl), tbl))
				case r < 65 && len(txs) > 0:
					class := ClassCommit
					if rng.Intn(4) == 0 {
						class = ClassRollback
					}
					resolve(txs[rng.Intn(len(txs))], class)
				default:
					l.Append(write(0, writeSQL(tbl), tbl))
				}
			}
			unresolved := pass(fmt.Sprintf("step %d", step))
			var writers []uint64
			for _, tx := range openTxs() {
				if len(open[tx]) > 0 {
					writers = append(writers, tx)
				}
			}
			sort.Slice(unresolved, func(i, j int) bool { return unresolved[i] < unresolved[j] })
			if fmt.Sprint(unresolved) != fmt.Sprint(writers) {
				t.Fatalf("iter %d step %d: unresolved %v, want the open writers %v", iter, step, unresolved, writers)
			}
		}
		for _, tx := range openTxs() {
			resolve(tx, ClassCommit)
		}
		if unresolved := pass("final pass"); len(unresolved) != 0 {
			t.Fatalf("iter %d: unresolved %v with every transaction resolved", iter, unresolved)
		}
		entries, _ := l.Since(0)
		if last := entries[len(entries)-1].Seq; cut != last {
			t.Fatalf("iter %d: final cut %d, want the log's end %d", iter, cut, last)
		}

		ref := mkBackend(t, fmt.Sprintf("oneshot%d", iter), schema...)
		want, err := ReplayParallel(l, 0, ref, 1)
		if err != nil {
			t.Fatalf("iter %d: one-shot replay: %v", iter, err)
		}
		if total != want {
			t.Fatalf("iter %d: passes applied %d entries, the one-shot replay %d", iter, total, want)
		}
		refState, gotState := dumpState(t, ref), dumpState(t, b)
		if len(refState) != len(gotState) {
			t.Fatalf("iter %d: table sets differ: %d vs %d", iter, len(refState), len(gotState))
		}
		for name, w := range refState {
			if g := gotState[name]; g != w {
				t.Fatalf("iter %d: table %s diverged\none-shot: %s\npasses:   %s", iter, name, w, g)
			}
		}
	}
}
