package sqlengine_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cjdbc"
	"cjdbc/internal/backend"
	"cjdbc/internal/plancache"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
	"cjdbc/internal/workload/rubis"
	"cjdbc/internal/workload/tpcw"
)

// The bind-equals-literal oracle. A request manager hands the engine a
// cached plan's shared tree plus the request's parameter vector
// (sqlparser.Bound), and the engine reads each placeholder from the vector
// when it evaluates it. A triplet of engines, loaded alike, runs every
// statement three ways:
//
//   - bound: the plan's tree and the vector, as a sqlparser.Bound;
//   - tree: a clone of the tree after sqlparser.BindParams, the form the
//     engine used to receive, which must give identical results and an
//     identical final state (kinds and time zones included);
//   - literal: the clone's rendering, parsed afresh — the text the recovery
//     log keeps and replay executes.
//
// A write that calls a macro runs as the request manager sends it: the
// plan's slotted tree with the vector its slots fill (sqlparser.SlotMacros,
// FillSlots); the tree engine binds the clone to that vector.
//
// The literal engine must end in the same state, value for value and kind
// for kind, and must answer every read whose values have an exact SQL
// literal with the same rows. It also checks that RenderParams(tree,
// vector), the write path's renderer, is byte-identical to rendering the
// bound clone.
//
// Some values have no literal that parses back to them: a float with an
// integral value renders as an integer, a time and a BLOB as a string, and
// NaN and the infinities not at all (sqlval.Value.SQLLiteral). A read with
// such a value is compared with the tree engine only; a write with one must
// still leave the literal engine in the same state, because every stored
// value is coerced to its column's kind.
type triplet struct {
	t                    *testing.T
	bound, tree, literal *sqlengine.Session
	engines              [3]*sqlengine.Engine
	plans                map[string]*plancache.Plan
	now                  time.Time
	rng                  *rand.Rand
	statements, inexact  int
	unrenderable         int
}

func newTriplet(t *testing.T) *triplet {
	tr := &triplet{t: t, plans: map[string]*plancache.Plan{},
		now: time.Date(2004, 6, 27, 12, 0, 0, 0, time.UTC), rng: rand.New(rand.NewSource(1))}
	for i, name := range []string{"bound", "tree", "literal"} {
		tr.engines[i] = sqlengine.New(name)
	}
	tr.bound, tr.tree, tr.literal = tr.engines[0].NewSession(), tr.engines[1].NewSession(), tr.engines[2].NewSession()
	t.Cleanup(func() {
		for _, s := range []*sqlengine.Session{tr.bound, tr.tree, tr.literal} {
			s.Close()
		}
	})
	return tr
}

// plan returns the shared plan of a text, built once as the plan cache does.
func (tr *triplet) plan(sql string) (*plancache.Plan, error) {
	key := plancache.Normalize(sql)
	if p := tr.plans[key]; p != nil {
		return p, nil
	}
	st, err := sqlparser.Parse(key)
	if err != nil {
		return nil, err
	}
	p := plancache.Build(key, st)
	if p.HasMacros && p.Class == sqlparser.ClassWrite {
		// As the request manager plans a write that calls a macro.
		p.Slots, p.SlotSQL = sqlparser.SlotMacros(st), sqlparser.Render(st)
	}
	tr.plans[key] = p
	return p, nil
}

// unrenderable reports a value with no SQL literal at all: NaN and the
// infinities render as text that does not parse back. A statement bound to
// one cannot be logged as text (only a log record that keeps the vector
// can carry it), so the literal engine applies the bound clone instead and
// the statement is counted.
func unrenderable(v sqlval.Value) bool {
	f := v.Float64()
	return v.K == sqlval.KindFloat && (math.IsNaN(f) || math.IsInf(f, 0))
}

// hasLiteral reports whether v's SQL literal parses back to exactly v.
func hasLiteral(v sqlval.Value) bool {
	st, err := sqlparser.Parse("SELECT " + v.SQLLiteral())
	if err != nil {
		return false
	}
	lit, ok := st.(*sqlparser.Select).Items[0].Expr.LitValue(nil)
	return ok && lit == v
}

// exec runs one statement on the triplet and returns the bound engine's
// answer.
func (tr *triplet) exec(sql string, params []sqlval.Value) (*sqlengine.Result, error) {
	t := tr.t
	t.Helper()
	tr.statements++
	p, err := tr.plan(sql)
	if err != nil {
		return nil, err
	}
	if err := sqlparser.CheckParams(p.NumParams, len(params)); err != nil {
		return nil, err
	}
	vec, boundSQL := params, p.SQL
	if p.Slots != nil {
		// The request manager fills a write's macro slots once, for every
		// replica.
		vec, boundSQL = sqlparser.FillSlots(p.Slots, params, tr.now, tr.rng), p.SlotSQL
	}
	clone := p.Stmt.Clone()
	if err := sqlparser.BindParams(clone, vec); err != nil {
		return nil, err
	}
	boundSt := &sqlparser.Bound{Stmt: p.Stmt, SQL: boundSQL, Params: vec}
	if got, want := sqlparser.RenderParams(p.Stmt, vec), sqlparser.Render(clone); got != want {
		t.Errorf("%s %v renders as\n  %q\nbound clone renders as\n  %q", sql, vec, got, want)
	}
	text := sqlparser.Render(clone)
	var literalSt sqlparser.Statement = clone.Clone()
	if slices.ContainsFunc(vec, unrenderable) {
		tr.unrenderable++
	} else if literalSt, err = sqlparser.Parse(text); err != nil {
		t.Errorf("%s %v: the rendered text %q does not parse: %v", sql, params, text, err)
		return nil, err
	}

	res, err := tr.bound.Exec(boundSt)
	treeRes, treeErr := tr.tree.Exec(clone)
	litRes, litErr := tr.literal.Exec(literalSt)
	if !sameOutcome(res, err, treeRes, treeErr, identical) {
		t.Errorf("%s %v: bound %s, bound clone %s", sql, params, describe(res, err), describe(treeRes, treeErr))
	}
	exact := !slices.ContainsFunc(vec, func(v sqlval.Value) bool { return !hasLiteral(v) })
	if exact && !sameOutcome(res, err, litRes, litErr, identical) {
		t.Errorf("%s %v: bound %s, literal text %q %s", sql, params, describe(res, err), text, describe(litRes, litErr))
	}
	if !exact {
		tr.inexact++
	}
	return res, err
}

// identical compares two values field for field: kind, payload and zone.
func identical(a, b sqlval.Value) bool { return a == b }

// sameStored compares stored values: the same kind and the same value.
func sameStored(a, b sqlval.Value) bool { return a.K == b.K && sqlval.Compare(a, b) == 0 }

func sameOutcome(a *sqlengine.Result, aErr error, b *sqlengine.Result, bErr error, eq func(a, b sqlval.Value) bool) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	if !slices.Equal(a.Columns, b.Columns) || a.RowsAffected != b.RowsAffected ||
		a.LastInsertID != b.LastInsertID || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !slices.EqualFunc(a.Rows[i], b.Rows[i], eq) {
			return false
		}
	}
	return true
}

func describe(res *sqlengine.Result, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("%v rows %v (%d affected)", res.Columns, res.Rows, res.RowsAffected)
}

// checkState compares every table of the three engines at the end.
func (tr *triplet) checkState() {
	t := tr.t
	t.Helper()
	names := tr.engines[0].TableNames()
	for i, e := range tr.engines[1:] {
		if got := e.TableNames(); !slices.Equal(got, names) {
			t.Fatalf("%s holds tables %v, bound holds %v", e.Name(), got, names)
		}
		eq := identical
		if i == 1 {
			eq = sameStored
		}
		for _, name := range names {
			_, want, err := tr.engines[0].SnapshotTable(name)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := e.SnapshotTable(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Errorf("%s.%s has %d rows, bound has %d", e.Name(), name, len(got), len(want))
				continue
			}
			for r := range want {
				if !slices.EqualFunc(got[r], want[r], eq) {
					t.Errorf("%s.%s row %d is %v, bound has %v", e.Name(), name, r, got[r], want[r])
				}
			}
		}
	}
}

// Exec, Query, Begin, Commit, Rollback and Close make the triplet a
// cjdbc.Session, so the TPC-W and RUBiS clients drive it directly.
func (tr *triplet) Exec(sql string, args ...any) (*cjdbc.Rows, error) {
	params := make([]sqlval.Value, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case int:
			params[i] = sqlval.Int(int64(x))
		case int64:
			params[i] = sqlval.Int(x)
		case float64:
			params[i] = sqlval.Float(x)
		case string:
			params[i] = sqlval.String_(x)
		case time.Time:
			params[i] = sqlval.Time(x)
		case sqlval.Value:
			params[i] = x
		default:
			return nil, fmt.Errorf("argument type %T", a)
		}
	}
	res, err := tr.exec(sql, params)
	if err != nil {
		return nil, err
	}
	return cjdbc.NewRows(&backend.Result{Columns: res.Columns, Rows: res.Rows,
		RowsAffected: res.RowsAffected, LastInsertID: res.LastInsertID}), nil
}

func (tr *triplet) Query(sql string, args ...any) (*cjdbc.Rows, error) { return tr.Exec(sql, args...) }
func (tr *triplet) Begin() error                                       { _, err := tr.Exec("BEGIN"); return err }
func (tr *triplet) Commit() error                                      { _, err := tr.Exec("COMMIT"); return err }
func (tr *triplet) Rollback() error                                    { _, err := tr.Exec("ROLLBACK"); return err }
func (tr *triplet) Close() error                                       { return nil }

var _ cjdbc.Session = (*triplet)(nil)

// TestBindEqualsLiteralTPCW runs the TPC-W loader and all three mixes.
func TestBindEqualsLiteralTPCW(t *testing.T) {
	tr := newTriplet(t)
	sc := tpcw.Scale{Items: 60, Customers: 40, Authors: 10}
	if err := tpcw.Load(tr, sc, 7); err != nil {
		t.Fatal(err)
	}
	alloc := tpcw.NewIDAllocator(1 << 20)
	for i, mix := range []tpcw.Mix{tpcw.Browsing, tpcw.Shopping, tpcw.Ordering} {
		c := tpcw.NewClient(i, tr, sc, mix, rand.New(rand.NewSource(int64(i+1))), alloc)
		for n := 0; n < 150; n++ {
			if _, err := c.Interaction(); err != nil {
				t.Fatalf("%s interaction %d: %v", mix, n, err)
			}
		}
	}
	tr.checkState()
	t.Logf("%d statements", tr.statements)
}

// TestBindEqualsLiteralRUBiS runs the RUBiS loader and the bidding mix.
func TestBindEqualsLiteralRUBiS(t *testing.T) {
	tr := newTriplet(t)
	sc := rubis.Scale{Users: 40, Items: 60, Categories: 5, Regions: 3}
	if err := rubis.Load(tr, sc, 7); err != nil {
		t.Fatal(err)
	}
	c := rubis.NewClient(tr, sc, rand.New(rand.NewSource(3)), rubis.NewIDAllocator(1<<20))
	for n := 0; n < 400; n++ {
		if _, err := c.Interaction(); err != nil {
			t.Fatalf("interaction %d: %v", n, err)
		}
	}
	tr.checkState()
	t.Logf("%d statements", tr.statements)
}

// edgeValues are the parameter values a renderer most easily gets wrong.
var edgeValues = []sqlval.Value{
	sqlval.Null,
	sqlval.Int(0), sqlval.Int(1), sqlval.Int(2), sqlval.Int(-3), sqlval.Int(math.MinInt64), sqlval.Int(math.MaxInt64),
	sqlval.Float(2.5), sqlval.Float(-0.125), sqlval.Float(2), sqlval.Float(1e300), sqlval.Float(-4.9e-324),
	sqlval.Float(math.NaN()), sqlval.Float(math.Inf(-1)),
	sqlval.String_(""), sqlval.String_("it's"), sqlval.String_(`back\slash ''`), sqlval.String_("ctl\x00\x01\n\t\x7f"),
	sqlval.String_("5"), sqlval.String_("%a_"), sqlval.String_("2004-06-27 12:00:00"),
	sqlval.Bool(true), sqlval.Bool(false),
	sqlval.Time(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)),
	sqlval.Time(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)),
	sqlval.Time(time.Date(2004, 6, 27, 12, 0, 0, 5, time.FixedZone("", 5*3600+1800))),
	sqlval.Bytes([]byte{0, 'x', 0xff}),
}

// TestBindEqualsLiteralEdgeValues binds every edge value into every
// operand position the engine reads parameters in: stored columns of each
// kind, hash and ordered index probes (a string bound to an INT key among
// them), ranges, BETWEEN, IN lists, projections, LIKE, ORDER BY position,
// LIMIT and OFFSET — and the point statements of the benchmark.
func TestBindEqualsLiteralEdgeValues(t *testing.T) {
	tr := newTriplet(t)
	for _, ddl := range []string{
		"CREATE TABLE edge (id INTEGER PRIMARY KEY, i INTEGER, f FLOAT, s VARCHAR, b BOOLEAN, ts TIMESTAMP)",
		"CREATE INDEX edge_i ON edge (i)",
		"CREATE INDEX edge_s ON edge (s)",
		"CREATE INDEX edge_ts ON edge (ts)",
		"CREATE TABLE kv0 (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)",
	} {
		if _, err := tr.exec(ddl, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Every edge value into every column: refusals (a string into an INT)
	// must match too.
	id := int64(0)
	for _, v := range edgeValues {
		for _, sql := range []string{
			"INSERT INTO edge (id, i, f, s, b, ts) VALUES (?, ?, ?, ?, ?, ?)",
			"INSERT INTO edge (id, i) VALUES (?, ?)",
			"INSERT INTO edge (id, f) VALUES (?, ?)",
			"INSERT INTO edge (id, s) VALUES (?, ?)",
			"INSERT INTO edge (id, b) VALUES (?, ?)",
			"INSERT INTO edge (id, ts) VALUES (?, ?)",
		} {
			id++
			params := []sqlval.Value{sqlval.Int(id), v}
			if sql[19] == 'i' && sql[20] == 'd' && sql[22] == ' ' {
				params = []sqlval.Value{sqlval.Int(id), v, v, v, v, v}
			}
			_, _ = tr.exec(sql, params)
		}
	}
	// The benchmark's point statements (bench/gen.go), with edge values in
	// every slot.
	for k := int64(0); k < 20; k++ {
		if _, err := tr.exec("INSERT INTO kv0 (id, v, pad) VALUES (?, ?, ?)",
			[]sqlval.Value{sqlval.Int(k), sqlval.Int(k * 7), sqlval.String_(fmt.Sprintf("pad-%d", k))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range edgeValues {
		w := sqlval.Int(5)
		for _, q := range []struct {
			sql    string
			params []sqlval.Value
		}{
			{"SELECT id, v, pad FROM kv0 WHERE id = ?", []sqlval.Value{v}},
			{"SELECT id, v, pad FROM kv0 WHERE id >= ? AND id < ? ORDER BY id", []sqlval.Value{v, w}},
			{"SELECT id, v, pad FROM kv0 WHERE id >= ? AND id < ? ORDER BY id", []sqlval.Value{w, v}},
			{"UPDATE kv0 SET v = v + ? WHERE id = ?", []sqlval.Value{v, w}},
			{"UPDATE kv0 SET v = v + ? WHERE id = ?", []sqlval.Value{sqlval.Int(1), v}},
			{"INSERT INTO kv0 (id, v, pad) VALUES (?, ?, ?)", []sqlval.Value{v, v, v}},
			{"SELECT id, i, f, s, b, ts FROM edge WHERE id = ?", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE i = ? ORDER BY id", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE f = ? ORDER BY id", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE s = ? ORDER BY id", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE ts = ? ORDER BY id", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE i < ? ORDER BY id", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE ? <= i ORDER BY i DESC, id", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE ts >= ? ORDER BY ts LIMIT 3", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE s > ? ORDER BY s", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE i BETWEEN ? AND ? ORDER BY id", []sqlval.Value{v, sqlval.Int(2)}},
			{"SELECT id FROM edge WHERE i BETWEEN ? AND ? ORDER BY id", []sqlval.Value{sqlval.Int(-5), v}},
			{"SELECT id FROM edge WHERE ts BETWEEN ? AND ? ORDER BY id", []sqlval.Value{v, v}},
			{"SELECT id, s FROM edge WHERE s IN (?, ?, 'it''s') ORDER BY id", []sqlval.Value{v, sqlval.String_("5")}},
			{"SELECT id FROM edge WHERE id IN (?, 3) ORDER BY id", []sqlval.Value{v}},
			{"SELECT id FROM edge WHERE i NOT IN (?, 0) ORDER BY id", []sqlval.Value{v}},
			{"SELECT id, ?, i + ?, s || ? FROM edge WHERE id = 4", []sqlval.Value{v, v, v}},
			{"SELECT ?, ? IS NULL", []sqlval.Value{v, v}},
			{"SELECT id FROM edge WHERE s LIKE ? ORDER BY id", []sqlval.Value{v}},
			{"SELECT COUNT(*), MAX(i) FROM edge WHERE b = ? GROUP BY s HAVING COUNT(*) > ? ORDER BY 1", []sqlval.Value{v, sqlval.Int(0)}},
			{"SELECT id, s FROM edge ORDER BY ?, id", []sqlval.Value{v}},
			{"SELECT id FROM edge ORDER BY id LIMIT ?", []sqlval.Value{v}},
			{"SELECT id FROM edge ORDER BY id LIMIT ? OFFSET ?", []sqlval.Value{sqlval.Int(3), v}},
			{"UPDATE edge SET s = ?, f = ? WHERE id = ?", []sqlval.Value{v, v, sqlval.Int(7)}},
			{"UPDATE edge SET i = ? WHERE s = ?", []sqlval.Value{v, v}},
			{"DELETE FROM edge WHERE ts = ? AND id > ?", []sqlval.Value{v, sqlval.Int(100)}},
		} {
			_, _ = tr.exec(q.sql, q.params)
		}
	}
	// A column default given as a parameter keeps its value after the
	// statement's vector is gone.
	if _, err := tr.exec("CREATE TABLE dflt (id INTEGER PRIMARY KEY, s VARCHAR DEFAULT ?)", []sqlval.Value{sqlval.String_("it's default")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.exec("INSERT INTO dflt (id) VALUES (?)", []sqlval.Value{sqlval.Int(1)}); err != nil {
		t.Fatal(err)
	}
	tr.checkState()
	t.Logf("%d statements, %d with a value that has no exact literal, %d of them with one that has none at all",
		tr.statements, tr.inexact, tr.unrenderable)
}

// TestBoundPlanSharedAcrossSessions: many sessions execute one shared
// parameterised plan at once, each with its own vector, so a placeholder
// read from the wrong statement's vector, or any write to the shared tree,
// shows as a wrong row here or as a race under -race. A shared LIKE ? plan
// runs with each session's own prefix and contains patterns, so a matcher
// compiled into the shared binding rather than the session shows too.
func TestBoundPlanSharedAcrossSessions(t *testing.T) {
	const sessions, rounds = 8, 200
	e := sqlengine.New("shared")
	setup := e.NewSession()
	if _, err := setup.ExecSQL("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		if _, err := setup.ExecSQL(fmt.Sprintf("INSERT INTO kv (id, v, pad) VALUES (%d, 0, 'p')", i)); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()
	plan := func(sql string) *plancache.Plan {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return plancache.Build(sql, st)
	}
	read := plan("SELECT v, pad FROM kv WHERE id = ? AND v >= ? ORDER BY ? LIMIT ?")
	write := plan("UPDATE kv SET v = ?, pad = ? WHERE id = ?")
	like := plan("SELECT id FROM kv WHERE pad LIKE ?")
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for r := int64(1); r <= rounds; r++ {
				pad := fmt.Sprintf("s%d'r%d", id, r)
				if _, err := s.Exec(&sqlparser.Bound{Stmt: write.Stmt, SQL: write.SQL,
					Params: []sqlval.Value{sqlval.Int(r), sqlval.String_(pad), sqlval.Int(id)}}); err != nil {
					errs <- err
					return
				}
				res, err := s.Exec(&sqlparser.Bound{Stmt: read.Stmt, SQL: read.SQL,
					Params: []sqlval.Value{sqlval.Int(id), sqlval.Int(r), sqlval.Int(1), sqlval.Int(1)}})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].I != r || res.Rows[0][1].S != pad {
					errs <- fmt.Errorf("session %d round %d read %v", id, r, res.Rows)
					return
				}
				for _, pat := range []string{fmt.Sprintf("S%d'r%%", id), fmt.Sprintf("%%%d'R%d%%", id, r)} {
					res, err := s.Exec(&sqlparser.Bound{Stmt: like.Stmt, SQL: like.SQL, Params: []sqlval.Value{sqlval.String_(pat)}})
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != 1 || res.Rows[0][0].I != id {
						errs <- fmt.Errorf("session %d round %d: pad LIKE %q read %v", id, r, pat, res.Rows)
						return
					}
				}
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
