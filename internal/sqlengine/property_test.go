package sqlengine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestPropertyEngineMatchesModel runs random insert/update/delete/rollback
// sequences against both the engine and a trivial in-memory model, checking
// that visible state agrees after every committed operation.
func TestPropertyEngineMatchesModel(t *testing.T) {
	const ops = 400
	rng := rand.New(rand.NewSource(99))
	e := New("prop")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER)")

	model := make(map[int64]int64) // id -> v
	var inTx bool
	txModel := make(map[int64]int64)
	snapshot := func() map[int64]int64 {
		cp := make(map[int64]int64, len(model))
		for k, v := range model {
			cp[k] = v
		}
		return cp
	}
	cur := func() map[int64]int64 {
		if inTx {
			return txModel
		}
		return model
	}

	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			id := rng.Int63n(200)
			v := rng.Int63n(1000)
			_, err := s.ExecSQL(fmt.Sprintf("INSERT INTO m (id, v) VALUES (%d, %d)", id, v))
			if _, exists := cur()[id]; exists {
				if err == nil {
					t.Fatalf("op %d: duplicate insert of %d accepted", i, id)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: insert: %v", i, err)
				}
				cur()[id] = v
			}
		case op < 6: // update
			id := rng.Int63n(200)
			v := rng.Int63n(1000)
			res, err := s.ExecSQL(fmt.Sprintf("UPDATE m SET v = %d WHERE id = %d", v, id))
			if err != nil {
				t.Fatalf("op %d: update: %v", i, err)
			}
			if _, exists := cur()[id]; exists {
				if res.RowsAffected != 1 {
					t.Fatalf("op %d: update affected %d", i, res.RowsAffected)
				}
				cur()[id] = v
			} else if res.RowsAffected != 0 {
				t.Fatalf("op %d: phantom update", i)
			}
		case op < 7: // delete
			id := rng.Int63n(200)
			res, err := s.ExecSQL(fmt.Sprintf("DELETE FROM m WHERE id = %d", id))
			if err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			_, exists := cur()[id]
			if exists != (res.RowsAffected == 1) {
				t.Fatalf("op %d: delete mismatch", i)
			}
			delete(cur(), id)
		case op < 8 && !inTx: // begin
			mustExec(t, s, "BEGIN")
			inTx = true
			txModel = snapshot()
		case op < 9 && inTx: // commit
			mustExec(t, s, "COMMIT")
			model = txModel
			inTx = false
		case inTx: // rollback
			mustExec(t, s, "ROLLBACK")
			inTx = false
		}
		// Verify visible state.
		res := mustExec(t, s, "SELECT id, v FROM m ORDER BY id")
		want := cur()
		if len(res.Rows) != len(want) {
			t.Fatalf("op %d: %d rows, model has %d", i, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			id, v := row[0].I, row[1].I
			if mv, ok := want[id]; !ok || mv != v {
				t.Fatalf("op %d: row (%d,%d) vs model %v", i, id, v, want[id])
			}
		}
	}
}

// Property: the sum of values is invariant under any interleaving of
// balanced transfer transactions (each moves an amount between two rows and
// commits or aborts).
func TestPropertyTransfersPreserveSum(t *testing.T) {
	e := New("bank")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)")
	const accounts = 8
	for i := 0; i < accounts; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, 100)", i))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		a, b := rng.Intn(accounts), rng.Intn(accounts)
		amt := rng.Intn(50)
		mustExec(t, s, "BEGIN")
		mustExec(t, s, fmt.Sprintf("UPDATE acct SET bal = bal - %d WHERE id = %d", amt, a))
		mustExec(t, s, fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id = %d", amt, b))
		if rng.Intn(3) == 0 {
			mustExec(t, s, "ROLLBACK")
		} else {
			mustExec(t, s, "COMMIT")
		}
		res := mustExec(t, s, "SELECT SUM(bal) FROM acct")
		if res.Rows[0][0].I != accounts*100 {
			t.Fatalf("iteration %d: sum = %v", i, res.Rows[0][0])
		}
	}
}

// Property (testing/quick): inserting any batch of distinct int pairs and
// reading them back returns exactly the batch.
func TestQuickInsertReadBack(t *testing.T) {
	f := func(vals []int16) bool {
		e := New("q")
		s := e.NewSession()
		if _, err := s.ExecSQL("CREATE TABLE q (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
			return false
		}
		want := make(map[int64]int64)
		for i, v := range vals {
			want[int64(i)] = int64(v)
			if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO q (id, v) VALUES (%d, %d)", i, v)); err != nil {
				return false
			}
		}
		res, err := s.ExecSQL("SELECT id, v FROM q")
		if err != nil || len(res.Rows) != len(want) {
			return false
		}
		for _, row := range res.Rows {
			if want[row[0].I] != row[1].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): WHERE range predicates agree with a direct scan
// of the model for arbitrary thresholds.
func TestQuickRangePredicates(t *testing.T) {
	e := New("q2")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE r (id INTEGER PRIMARY KEY, v INTEGER)")
	vals := make(map[int64]int64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		v := rng.Int63n(1000) - 500
		vals[int64(i)] = v
		mustExec(t, s, fmt.Sprintf("INSERT INTO r (id, v) VALUES (%d, %d)", i, v))
	}
	f := func(threshold int16) bool {
		res, err := s.ExecSQL(fmt.Sprintf("SELECT COUNT(*) FROM r WHERE v >= %d", threshold))
		if err != nil {
			return false
		}
		want := int64(0)
		for _, v := range vals {
			if v >= int64(threshold) {
				want++
			}
		}
		return res.Rows[0][0].I == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIndexPlanMatchesFullScan proves the access planner is pure
// candidate narrowing: every random query returns exactly the same rows
// whether executed through index planning or with planning forced off
// (full scan), on a table mixing unique and non-unique indexes, deleted
// rows (tombstones) and unindexed columns.
func TestPropertyIndexPlanMatchesFullScan(t *testing.T) {
	e := New("planprop")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, v INTEGER, w INTEGER, name VARCHAR)")
	mustExec(t, s, "CREATE INDEX p_v ON p (v)")
	mustExec(t, s, "CREATE INDEX p_name ON p (name)")
	mustExec(t, s, "CREATE TABLE q (id INTEGER PRIMARY KEY, x INTEGER)")
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO p (id, v, w, name) VALUES (%d, %d, %d, 'n%d')",
			i, rng.Intn(40), rng.Intn(40), rng.Intn(25)))
	}
	for i := 0; i < 150; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO q (id, x) VALUES (%d, %d)", i*2, rng.Intn(40)))
	}
	for i := 0; i < 80; i++ {
		mustExec(t, s, fmt.Sprintf("DELETE FROM p WHERE id = %d", rng.Intn(400)))
	}

	render := func(res *Result) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			if len(r) != len(res.Columns) {
				t.Fatalf("row %d has %d values for %d columns %v", i, len(r), len(res.Columns), res.Columns)
			}
			out[i] = rowKey(r)
		}
		sort.Strings(out)
		return out
	}
	both := func(sql string) (planned, scanned []string) {
		e.noIndexPlan.Store(false)
		r1, err := s.ExecSQL(sql)
		if err != nil {
			t.Fatalf("planned %q: %v", sql, err)
		}
		planned = render(r1)
		e.noIndexPlan.Store(true)
		r2, err := s.ExecSQL(sql)
		e.noIndexPlan.Store(false)
		if err != nil {
			t.Fatalf("scanned %q: %v", sql, err)
		}
		return planned, render(r2)
	}

	lit := func() int { return rng.Intn(45) }
	queries := make([]string, 0, 300)
	for i := 0; i < 40; i++ {
		queries = append(queries,
			fmt.Sprintf("SELECT * FROM p WHERE id = %d", rng.Intn(420)),
			fmt.Sprintf("SELECT id, v FROM p WHERE v = %d", lit()),
			fmt.Sprintf("SELECT id FROM p WHERE v = %d AND w > %d", lit(), lit()),
			fmt.Sprintf("SELECT id FROM p WHERE w = %d AND v = %d", lit(), lit()),
			fmt.Sprintf("SELECT id FROM p WHERE v IN (%d, %d, %d)", lit(), lit(), lit()),
			fmt.Sprintf("SELECT id FROM p WHERE v IN (%d, %d.0)", lit(), lit()),
			fmt.Sprintf("SELECT id FROM p WHERE name = 'n%d'", rng.Intn(28)),
			fmt.Sprintf("SELECT id FROM p WHERE id = %d OR v = %d", rng.Intn(420), lit()),
			fmt.Sprintf("SELECT id FROM p WHERE id = '%d'", rng.Intn(420)),
			fmt.Sprintf("SELECT name, COUNT(*) FROM p WHERE v = %d GROUP BY name", lit()),
			fmt.Sprintf("SELECT DISTINCT v FROM p WHERE name = 'n%d'", rng.Intn(28)),
			fmt.Sprintf("SELECT p.id, q.x FROM p JOIN q ON p.id = q.id WHERE p.v = %d", lit()),
			fmt.Sprintf("SELECT p.id, q.x FROM p LEFT JOIN q ON p.id = q.id WHERE p.v = %d", lit()),
			fmt.Sprintf("SELECT id, v FROM p WHERE v = %d ORDER BY id LIMIT 3", lit()),
		)
	}
	for _, sql := range queries {
		planned, scanned := both(sql)
		if len(planned) != len(scanned) {
			t.Fatalf("%q: planned %d rows, scan %d rows", sql, len(planned), len(scanned))
		}
		for i := range planned {
			if planned[i] != scanned[i] {
				t.Fatalf("%q: row %d differs:\n  planned %q\n  scanned %q", sql, i, planned[i], scanned[i])
			}
		}
	}

	// LIMIT without ORDER BY may legally pick different rows per plan; the
	// property is count-equivalence plus membership in the full result.
	for i := 0; i < 40; i++ {
		v, k := lit(), 1+rng.Intn(4)
		full, _ := both(fmt.Sprintf("SELECT id, v FROM p WHERE v = %d", v))
		universe := make(map[string]bool, len(full))
		for _, r := range full {
			universe[r] = true
		}
		want := len(full)
		if k < want {
			want = k
		}
		limited, scanLimited := both(fmt.Sprintf("SELECT id, v FROM p WHERE v = %d LIMIT %d", v, k))
		if len(limited) != want || len(scanLimited) != want {
			t.Fatalf("v=%d LIMIT %d: planned %d, scanned %d, want %d rows",
				v, k, len(limited), len(scanLimited), want)
		}
		for _, r := range limited {
			if !universe[r] {
				t.Fatalf("v=%d LIMIT %d: planned row %q not in full result", v, k, r)
			}
		}
	}
}

// TestJoinIndexProbeCrossClass: the indexed equi-join must not miss rows
// whose join keys compare equal across kind classes (string '5' vs integer
// 5 hash differently but compare equal), falling back to a scan instead.
func TestJoinIndexProbeCrossClass(t *testing.T) {
	e := New("xclass")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, sv VARCHAR)")
	mustExec(t, s, "CREATE TABLE b (bi INTEGER PRIMARY KEY, tag VARCHAR)")
	mustExec(t, s, "INSERT INTO a (id, sv) VALUES (1, '5')")
	mustExec(t, s, "INSERT INTO b (bi, tag) VALUES (5, 'five')")
	res := mustExec(t, s, "SELECT a.id, b.tag FROM a JOIN b ON a.sv = b.bi")
	if len(res.Rows) != 1 || res.Rows[0][1].AsString() != "five" {
		t.Fatalf("cross-class join returned %v, want one row joining '5' to 5", res.Rows)
	}
	// Same-class keys still use the index path and agree.
	res = mustExec(t, s, "SELECT a.id, b.tag FROM a JOIN b ON a.id = b.bi")
	if len(res.Rows) != 0 {
		t.Fatalf("1 should not join 5: %v", res.Rows)
	}
}

// TestJoinIndexProbeResolvesColumnsAsOnDoes: an index probe answers ON with
// ON's own columns. Unqualified, x names the first FROM entry's column, so
// ON x = a.id compares a.x with a.id, and every b row joins an a row where
// they are equal; a probe of b's index on x would keep only the b rows
// whose own x equals a.id.
func TestJoinIndexProbeResolvesColumnsAsOnDoes(t *testing.T) {
	e := New("onresolve")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, x INTEGER)")
	mustExec(t, s, "CREATE INDEX b_x ON b (x)")
	mustExec(t, s, "INSERT INTO a (id, x) VALUES (1, 1), (2, 5)")
	mustExec(t, s, "INSERT INTO b (id, x) VALUES (10, 1), (11, 2), (12, 1)")
	for _, q := range []string{
		"SELECT a.id, b.id FROM a JOIN b ON x = a.id ORDER BY a.id, b.id",
		"SELECT a.id, b.id FROM a JOIN b ON a.id = x ORDER BY a.id, b.id",
		"SELECT a.id, b.id FROM a JOIN b ON x = a.id WHERE b.id > 0 ORDER BY a.id, b.id",
	} {
		planned := mustExec(t, s, q)
		e.noIndexPlan.Store(true)
		scanned := mustExec(t, s, q)
		e.noIndexPlan.Store(false)
		if fmt.Sprint(planned.Rows) != fmt.Sprint(scanned.Rows) || len(scanned.Rows) != 3 {
			t.Errorf("%s: indexed join %v, nested loop %v", q, planned.Rows, scanned.Rows)
		}
	}
}
