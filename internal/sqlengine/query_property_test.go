package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// renderTyped renders a result row with each value's kind, so an integer
// SUM and a float SUM of the same magnitude do not compare equal.
func renderTyped(row []sqlval.Value) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, "%v:%q ", v.K, v.Key())
	}
	return b.String()
}

// sameRows fails the test unless res holds want's rows in the same order,
// each with one value per result column.
func sameRows(t *testing.T, sql string, res *Result, want [][]sqlval.Value) {
	t.Helper()
	got := res.Rows
	for i, r := range got {
		if len(r) != len(res.Columns) {
			t.Fatalf("%s: row %d has %d values for %d columns %v", sql, i, len(r), len(res.Columns), res.Columns)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d\n got  %v\n want %v", sql, len(got), len(want), got, want)
	}
	for i := range got {
		if g, w := renderTyped(got[i]), renderTyped(want[i]); g != w {
			t.Fatalf("%s: row %d is %s, reference %s", sql, i, g, w)
		}
	}
}

// randVal picks one of vals, or NULL one time in nullOneIn.
func randVal(rng *rand.Rand, nullOneIn int, vals ...sqlval.Value) sqlval.Value {
	if rng.Intn(nullOneIn) == 0 {
		return sqlval.Null
	}
	return vals[rng.Intn(len(vals))]
}

// aggArg is an aggregate argument: its SQL text and its value on a row of
// the model table t(id, k, i, f, s).
type aggArg struct {
	sql     string
	numeric bool
	eval    func(r []sqlval.Value) sqlval.Value
}

var aggArgs = []aggArg{
	{"i", true, func(r []sqlval.Value) sqlval.Value { return r[2] }},
	{"f", true, func(r []sqlval.Value) sqlval.Value { return r[3] }},
	{"s", false, func(r []sqlval.Value) sqlval.Value { return r[4] }},
	// Mixes kinds within one aggregate: a float where f is set, else an int.
	{"COALESCE(f, i)", true, func(r []sqlval.Value) sqlval.Value {
		if !r[3].IsNull() {
			return r[3]
		}
		return r[2]
	}},
}

// refAggregate is the brute-force aggregate: collect the group's argument
// values, drop NULLs, drop repeats for DISTINCT (first occurrence kept),
// then fold them in row order.
func refAggregate(fn string, distinct bool, arg *aggArg, rows [][]sqlval.Value) sqlval.Value {
	if arg == nil { // COUNT(*)
		return sqlval.Int(int64(len(rows)))
	}
	var vals []sqlval.Value
	for _, r := range rows {
		v := arg.eval(r)
		if v.IsNull() {
			continue
		}
		dup := false
		for _, w := range vals {
			dup = dup || distinct && sqlval.Compare(v, w) == 0
		}
		if !dup {
			vals = append(vals, v)
		}
	}
	switch fn {
	case "COUNT":
		return sqlval.Int(int64(len(vals)))
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqlval.Null
		}
		ext := vals[0]
		for _, v := range vals[1:] {
			if c := sqlval.Compare(v, ext); fn == "MIN" && c < 0 || fn == "MAX" && c > 0 {
				ext = v
			}
		}
		return ext
	}
	if len(vals) == 0 {
		return sqlval.Null
	}
	var sum float64
	var sumInt int64
	allInt := true
	for _, v := range vals {
		f, _ := v.AsFloat()
		sum += f
		if v.K != sqlval.KindInt || v.I > 0 && sumInt > math.MaxInt64-v.I || v.I < 0 && sumInt < math.MinInt64-v.I {
			allInt = false
		} else {
			sumInt += v.I
		}
	}
	if fn == "AVG" {
		return sqlval.Float(sum / float64(len(vals)))
	}
	if allInt {
		return sqlval.Int(sumInt)
	}
	return sqlval.Float(sum)
}

// TestPropertyGroupByMatchesReference checks grouped and aggregate queries
// against a brute-force reference kept in the test, over randomized tables
// with NULLs in every column: every aggregate with and without DISTINCT,
// integer/float mixes, GROUP BY on columns and on expressions — one of them
// mixing INTEGER, integral and non-integral FLOAT, BOOLEAN and NULL keys,
// where 1, 1.0 and TRUE are one group — HAVING on aggregates inside and
// outside the select list, ORDER BY an aggregate DESC with LIMIT/OFFSET,
// and empty input. Groups come out in the order their first row was
// scanned, or in the stable sort's.
func TestPropertyGroupByMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	e := New("groupprop")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, i INTEGER, f FLOAT, s VARCHAR, b BOOLEAN)")
	var model [][]sqlval.Value
	for id := 0; id < 120; id++ {
		r := []sqlval.Value{
			sqlval.Int(int64(id)),
			randVal(rng, 6, sqlval.Int(0), sqlval.Int(1), sqlval.Int(2), sqlval.Int(3), sqlval.Int(4)),
			randVal(rng, 5, sqlval.Int(-3), sqlval.Int(0), sqlval.Int(1), sqlval.Int(2), sqlval.Int(6)),
			randVal(rng, 3, sqlval.Float(-2.5), sqlval.Float(0.5), sqlval.Float(1), sqlval.Float(2), sqlval.Float(3.25)),
			randVal(rng, 5, sqlval.String_("a"), sqlval.String_("b"), sqlval.String_("B"), sqlval.String_("c")),
			randVal(rng, 3, sqlval.Bool(true), sqlval.Bool(false)),
		}
		model = append(model, r)
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, k, i, f, s, b) VALUES (%s, %s, %s, %s, %s, %s)",
			r[0].SQLLiteral(), r[1].SQLLiteral(), r[2].SQLLiteral(), r[3].SQLLiteral(), r[4].SQLLiteral(), r[5].SQLLiteral()))
	}

	type keyExpr struct {
		sql  string
		eval func(r []sqlval.Value) sqlval.Value
	}
	col := func(name string, pos int) keyExpr {
		return keyExpr{name, func(r []sqlval.Value) sqlval.Value { return r[pos] }}
	}
	kMod3 := keyExpr{"k % 3", func(r []sqlval.Value) sqlval.Value {
		v, _ := sqlval.Mod(r[1], sqlval.Int(3))
		return v
	}}
	// The first non-NULL of f, i and b: every key class of one column.
	mixed := keyExpr{"COALESCE(f, i, b)", func(r []sqlval.Value) sqlval.Value {
		for _, v := range []sqlval.Value{r[3], r[2], r[5]} {
			if !v.IsNull() {
				return v
			}
		}
		return sqlval.Null
	}}
	groupings := [][]keyExpr{nil, {col("k", 1)}, {kMod3}, {col("s", 4)}, {col("k", 1), col("s", 4)}, {mixed}, {mixed, col("s", 4)}}
	wheres := []struct {
		sql  string
		keep func(r []sqlval.Value) bool
	}{
		{"", func([]sqlval.Value) bool { return true }},
		{" WHERE i > 0", func(r []sqlval.Value) bool { return !r[2].IsNull() && r[2].I > 0 }},
		{" WHERE id < 0", func([]sqlval.Value) bool { return false }},
	}

	type call struct {
		fn       string
		distinct bool
		arg      *aggArg
	}
	randCall := func() call {
		if rng.Intn(6) == 0 {
			return call{fn: "COUNT"}
		}
		arg := &aggArgs[rng.Intn(len(aggArgs))]
		fns := []string{"COUNT", "MIN", "MAX"}
		if arg.numeric {
			fns = append(fns, "SUM", "AVG")
		}
		return call{fn: fns[rng.Intn(len(fns))], distinct: rng.Intn(3) == 0, arg: arg}
	}
	callSQL := func(c call) string {
		if c.arg == nil {
			return "COUNT(*)"
		}
		d := ""
		if c.distinct {
			d = "DISTINCT "
		}
		return fmt.Sprintf("%s(%s%s)", c.fn, d, c.arg.sql)
	}

	for q := 0; q < 400; q++ {
		keys := groupings[rng.Intn(len(groupings))]
		where := wheres[rng.Intn(len(wheres))]
		calls := make([]call, 1+rng.Intn(3))
		for j := range calls {
			calls[j] = randCall()
		}
		var items, groupBy []string
		for _, k := range keys {
			items = append(items, k.sql)
			groupBy = append(groupBy, k.sql)
		}
		for _, c := range calls {
			items = append(items, callSQL(c))
		}
		sql := "SELECT " + strings.Join(items, ", ") + " FROM t" + where.sql
		if len(groupBy) > 0 {
			sql += " GROUP BY " + strings.Join(groupBy, ", ")
		}
		// HAVING: none, on a row count, on a selected aggregate, or on an
		// aggregate the select list does not carry.
		having := func([][]sqlval.Value, []sqlval.Value) bool { return true }
		switch h := rng.Intn(4); h {
		case 1:
			sql += " HAVING COUNT(*) > 1"
			having = func(rows [][]sqlval.Value, _ []sqlval.Value) bool { return len(rows) > 1 }
		case 2:
			sql += " HAVING " + callSQL(calls[0]) + " IS NULL"
			having = func(_ [][]sqlval.Value, aggs []sqlval.Value) bool { return aggs[0].IsNull() }
		case 3:
			sql += " HAVING MAX(i) >= 2"
			having = func(rows [][]sqlval.Value, _ []sqlval.Value) bool {
				m := refAggregate("MAX", false, &aggArgs[0], rows)
				return !m.IsNull() && m.I >= 2
			}
		}

		// Reference: groups in first-seen order, keyed by the NULL-equal
		// tuple of key values.
		type group struct {
			key  []sqlval.Value
			rows [][]sqlval.Value
		}
		var groups []*group
		for _, r := range model {
			if !where.keep(r) {
				continue
			}
			kv := make([]sqlval.Value, len(keys))
			for j, k := range keys {
				kv[j] = k.eval(r)
			}
			var g *group
			for _, cand := range groups {
				same := true
				for j := range kv {
					same = same && sqlval.Compare(kv[j], cand.key[j]) == 0
				}
				if same {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{key: kv}
				groups = append(groups, g)
			}
			g.rows = append(g.rows, r)
		}
		if len(keys) == 0 && len(groups) == 0 {
			groups = []*group{{}}
		}
		var want [][]sqlval.Value
		for _, g := range groups {
			aggs := make([]sqlval.Value, len(calls))
			for j, c := range calls {
				aggs[j] = refAggregate(c.fn, c.distinct, c.arg, g.rows)
			}
			if having(g.rows, aggs) {
				want = append(want, append(append([]sqlval.Value(nil), g.key...), aggs...))
			}
		}
		// ORDER BY an aggregate DESC, cut by LIMIT/OFFSET: the stable sort
		// of the groups, then the window.
		if rng.Intn(3) == 0 {
			j := rng.Intn(len(calls))
			limit, offset := rng.Intn(5), rng.Intn(3)
			sql += fmt.Sprintf(" ORDER BY %s DESC LIMIT %d OFFSET %d", callSQL(calls[j]), limit, offset)
			col := len(keys) + j
			sort.SliceStable(want, func(a, b int) bool { return sqlval.Compare(want[a][col], want[b][col]) > 0 })
			want = want[min(offset, len(want)):]
			want = want[:min(limit, len(want))]
		}
		sameRows(t, sql, mustExec(t, s, sql), want)
	}
}

// TestPropertyDistinctAndGroupByOverControlBytes checks DISTINCT and
// GROUP BY over two string columns that contain the bytes value keys are
// made of (\x00, the kind letters) and \x1f. Most rows split one string
// x1 SEP x2 SEP x3, SEP = "\x1f\x00s", at either SEP, so joining per-value
// keys with \x1f would make different tuples meet. The reference keeps
// tuples in first-seen order and compares them value by value.
func TestPropertyDistinctAndGroupByOverControlBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const sep = "\x1f\x00s"
	short := []string{"", "p", "q"}
	pieces := []string{"", "p", "\x1f", "\x00s", "\x00", "s", sep + "q"}
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	pair := func() (sqlval.Value, sqlval.Value) {
		if rng.Intn(4) == 0 {
			return randVal(rng, 4, sqlval.String_(pick(pieces)+pick(pieces))), randVal(rng, 4, sqlval.String_(pick(pieces)))
		}
		x1, x2, x3 := pick(short), pick(short), pick(short)
		if rng.Intn(2) == 0 {
			return sqlval.String_(x1), sqlval.String_(x2 + sep + x3)
		}
		return sqlval.String_(x1 + sep + x2), sqlval.String_(x3)
	}
	for round := 0; round < 20; round++ {
		e := New("ctlbytes")
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, a VARCHAR, b VARCHAR)")
		var model [][]sqlval.Value
		for id := 0; id < 60; id++ {
			a, b := pair()
			r := []sqlval.Value{sqlval.Int(int64(id)), a, b}
			model = append(model, r)
			mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, a, b) VALUES (%d, %s, %s)", id, r[1].SQLLiteral(), r[2].SQLLiteral()))
		}
		for _, cols := range [][]int{{1, 2}, {2, 1}, {1, 2, 1}} {
			names := make([]string, len(cols))
			for i, c := range cols {
				names[i] = "ab"[c-1 : c]
			}
			list := strings.Join(names, ", ")
			// Tuples in first-seen order, with their row counts.
			var tuples [][]sqlval.Value
			var counts []int64
			for _, r := range model {
				tup := make([]sqlval.Value, len(cols))
				for i, c := range cols {
					tup[i] = r[c]
				}
				found := -1
				for j, u := range tuples {
					same := true
					for i := range u {
						same = same && sqlval.Compare(u[i], tup[i]) == 0
					}
					if same {
						found = j
						break
					}
				}
				if found < 0 {
					tuples = append(tuples, tup)
					counts = append(counts, 0)
					found = len(tuples) - 1
				}
				counts[found]++
			}
			sql := "SELECT DISTINCT " + list + " FROM t"
			sameRows(t, sql, mustExec(t, s, sql), tuples)
			grouped := make([][]sqlval.Value, len(tuples))
			for j, u := range tuples {
				grouped[j] = append(append([]sqlval.Value(nil), u...), sqlval.Int(counts[j]))
			}
			sql = "SELECT " + list + ", COUNT(*) FROM t GROUP BY " + list
			sameRows(t, sql, mustExec(t, s, sql), grouped)
		}
	}
}

// TestPropertyJoinMatchesNestedLoop checks joins against a nested-loop
// reference kept in the test: INNER and LEFT joins, indexed equi-joins and
// non-equi ON clauses, WHERE on either side, LIMIT/OFFSET with and without
// ORDER BY, and three tables. Results must match row for row and in order:
// the base table in rowid order, each joined table's matches in rowid
// order, a stable sort for ORDER BY. Updates to an indexed join column
// leave index buckets out of rowid order, which the probe must not show.
func TestPropertyJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	e := New("joinprop")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER, y VARCHAR)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, ax INTEGER, z INTEGER)")
	mustExec(t, s, "CREATE TABLE c (id INTEGER PRIMARY KEY, bz INTEGER, w VARCHAR)")
	mustExec(t, s, "CREATE INDEX b_ax ON b (ax)")
	mustExec(t, s, "CREATE INDEX c_bz ON c (bz)")
	small := func(n int) []sqlval.Value {
		out := make([]sqlval.Value, n)
		for i := range out {
			out[i] = sqlval.Int(int64(i))
		}
		return out
	}
	names := []sqlval.Value{sqlval.String_("p"), sqlval.String_("q"), sqlval.String_("r")}
	tables := map[string][][]sqlval.Value{}
	insert := func(table string, r []sqlval.Value) {
		tables[table] = append(tables[table], r)
		lits := make([]string, len(r))
		for i, v := range r {
			lits[i] = v.SQLLiteral()
		}
		cols := map[string]string{"a": "id, x, y", "b": "id, ax, z", "c": "id, bz, w"}[table]
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", table, cols, strings.Join(lits, ", ")))
	}
	for id := 0; id < 30; id++ {
		insert("a", []sqlval.Value{sqlval.Int(int64(id)), randVal(rng, 6, small(6)...), randVal(rng, 6, names...)})
	}
	for id := 0; id < 40; id++ {
		insert("b", []sqlval.Value{sqlval.Int(int64(id)), randVal(rng, 6, small(6)...), randVal(rng, 8, small(10)...)})
	}
	for id := 0; id < 20; id++ {
		insert("c", []sqlval.Value{sqlval.Int(int64(id)), randVal(rng, 6, small(10)...), randVal(rng, 6, names...)})
	}
	// Move older b rows to other join keys: their refs land at the end of
	// the new key's bucket, behind younger rows.
	for i := 0; i < 12; i++ {
		id, ax := rng.Intn(40), rng.Intn(6)
		mustExec(t, s, fmt.Sprintf("UPDATE b SET ax = %d WHERE id = %d", ax, id))
		tables["b"][id][1] = sqlval.Int(int64(ax))
	}

	// Combined rows are a.id a.x a.y | b.id b.ax b.z | c.id c.bz c.w.
	eq := func(l, r sqlval.Value) bool { return !l.IsNull() && !r.IsNull() && sqlval.Compare(l, r) == 0 }
	lt := func(l, r sqlval.Value) bool { return !l.IsNull() && !r.IsNull() && sqlval.Compare(l, r) < 0 }
	ons2 := []struct {
		sql string
		ok  func(r []sqlval.Value) bool
	}{
		{"a.x = b.ax", func(r []sqlval.Value) bool { return eq(r[1], r[4]) }},
		{"b.ax = a.x", func(r []sqlval.Value) bool { return eq(r[1], r[4]) }},
		{"a.x < b.z", func(r []sqlval.Value) bool { return lt(r[1], r[5]) }},
		{"a.x = b.ax AND b.z > 4", func(r []sqlval.Value) bool { return eq(r[1], r[4]) && lt(sqlval.Int(4), r[5]) }},
	}
	ons3 := []struct {
		sql string
		ok  func(r []sqlval.Value) bool
	}{
		{"c.bz = b.z", func(r []sqlval.Value) bool { return eq(r[5], r[7]) }},
		{"c.bz > a.x", func(r []sqlval.Value) bool { return lt(r[1], r[7]) }},
	}
	wheres := []struct {
		sql  string
		keep func(r []sqlval.Value) bool
	}{
		{"", func([]sqlval.Value) bool { return true }},
		{" WHERE a.y = 'p'", func(r []sqlval.Value) bool { return eq(r[2], names[0]) }},
		{" WHERE b.z >= 5", func(r []sqlval.Value) bool { return !lt(r[5], sqlval.Int(5)) && !r[5].IsNull() }},
		{" WHERE b.id IS NULL", func(r []sqlval.Value) bool { return r[3].IsNull() }},
		{" WHERE a.id = 7", func(r []sqlval.Value) bool { return eq(r[0], sqlval.Int(7)) }},
		{" WHERE a.x = b.z OR a.y = 'q'", func(r []sqlval.Value) bool { return eq(r[1], r[5]) || eq(r[2], names[1]) }},
	}
	// join extends each row of rows by every matching row of right, or by
	// NULLs when nothing matches and the join is LEFT.
	join := func(rows [][]sqlval.Value, right [][]sqlval.Value, left bool, on func([]sqlval.Value) bool) [][]sqlval.Value {
		var out [][]sqlval.Value
		for _, l := range rows {
			matched := false
			for _, r := range right {
				cand := append(append([]sqlval.Value(nil), l...), r...)
				if on(cand) {
					matched = true
					out = append(out, cand)
				}
			}
			if !matched && left {
				out = append(out, append(append([]sqlval.Value(nil), l...), make([]sqlval.Value, len(right[0]))...))
			}
		}
		return out
	}
	joinKind := func(left bool) string {
		if left {
			return " LEFT JOIN "
		}
		return " JOIN "
	}

	for q := 0; q < 400; q++ {
		on2 := ons2[rng.Intn(len(ons2))]
		left2 := rng.Intn(2) == 0
		three := rng.Intn(3) == 0
		where := wheres[rng.Intn(len(wheres))]
		sql := "SELECT a.id, b.id, b.z"
		if three {
			sql += ", c.id"
		}
		sql += " FROM a" + joinKind(left2) + "b ON " + on2.sql
		want := join(tables["a"], tables["b"], left2, on2.ok)
		proj := []int{0, 3, 5}
		if three {
			on3 := ons3[rng.Intn(len(ons3))]
			left3 := rng.Intn(2) == 0
			sql += joinKind(left3) + "c ON " + on3.sql
			want = join(want, tables["c"], left3, on3.ok)
			proj = append(proj, 6)
		}
		sql += where.sql
		kept := want[:0]
		for _, r := range want {
			if where.keep(r) {
				kept = append(kept, r)
			}
		}
		want = kept
		if rng.Intn(2) == 0 {
			sql += " ORDER BY b.z DESC, a.id"
			sort.SliceStable(want, func(i, j int) bool {
				if c := sqlval.Compare(want[i][5], want[j][5]); c != 0 {
					return c > 0
				}
				return sqlval.Compare(want[i][0], want[j][0]) < 0
			})
		}
		if rng.Intn(2) == 0 {
			limit, offset := rng.Intn(8), rng.Intn(4)
			sql += fmt.Sprintf(" LIMIT %d OFFSET %d", limit, offset)
			want = want[min(offset, len(want)):]
			want = want[:min(limit, len(want))]
		}
		projected := make([][]sqlval.Value, len(want))
		for i, r := range want {
			for _, p := range proj {
				projected[i] = append(projected[i], r[p])
			}
		}
		sameRows(t, sql, mustExec(t, s, sql), projected)
	}
}

// mustExecParams executes sql with its placeholders bound to params.
func mustExecParams(t *testing.T, s *Session, sql string, params ...sqlval.Value) *Result {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := s.Exec(&sqlparser.Bound{Stmt: st, SQL: sql, Params: params})
	if err != nil {
		t.Fatalf("exec %q %v: %v", sql, params, err)
	}
	return res
}

// TestSumOverflowAnswersFloat: an integer SUM whose running sum leaves
// int64 answers the float sum, as a SUM over mixed input does, instead of
// wrapping around. A sum that stays in range at every step stays an exact
// integer, even where it passes through an extreme.
func TestSumOverflowAnswersFloat(t *testing.T) {
	s := New("sumoverflow").NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE o (id INTEGER PRIMARY KEY, g INTEGER, v INTEGER)")
	for i, r := range [][2]int64{
		{1, math.MaxInt64}, {1, 1},
		{2, math.MinInt64}, {2, -1},
		{3, math.MaxInt64}, {3, 0}, {3, math.MinInt64},
	} {
		mustExecParams(t, s, "INSERT INTO o (id, g, v) VALUES (?, ?, ?)", sqlval.Int(int64(i)), sqlval.Int(r[0]), sqlval.Int(r[1]))
	}
	sql := "SELECT g, SUM(v) FROM o GROUP BY g"
	sameRows(t, sql, mustExec(t, s, sql), [][]sqlval.Value{
		{sqlval.Int(1), sqlval.Float(float64(math.MaxInt64) + 1)},
		{sqlval.Int(2), sqlval.Float(float64(math.MinInt64) - 1)},
		{sqlval.Int(3), sqlval.Int(-1)},
	})
	sql = "SELECT SUM(v), SUM(DISTINCT v) FROM o WHERE g = 1"
	sameRows(t, sql, mustExec(t, s, sql), [][]sqlval.Value{
		{sqlval.Float(float64(math.MaxInt64) + 1), sqlval.Float(float64(math.MaxInt64) + 1)},
	})
}

// TestPropertyTopKMatchesStableSort checks ORDER BY … LIMIT … OFFSET
// against the full stable sort of the same rows, cut afterwards. The rows
// come from the same statement with no ORDER BY and no LIMIT, extended by
// the ORDER BY keys the select list does not carry, and are sorted here.
// Tables are random with heavy ties and NULLs; ORDER BY has 1–3 keys, ASC
// and DESC, naming an output alias, an output position or an expression
// outside the select list; LIMIT is 0, 1, below, at and above the row
// count, OFFSET up to beyond it, as literals and as parameters; statements
// are grouped and ungrouped, over one table and a join, with and without
// DISTINCT.
func TestPropertyTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	type family struct {
		from     string
		items    []string // the select list; item i is aliased c<i+1>
		groupBy  string
		distinct bool
		hidden   []string // ORDER BY keys outside the select list
	}
	families := []family{
		{from: "t", items: []string{"id", "a", "b", "c"}, hidden: []string{"c", "a + id", "b"}},
		{from: "t", items: []string{"a", "b"}, distinct: true},
		{from: "t", items: []string{"a", "COUNT(*)", "SUM(c)"}, groupBy: "a", hidden: []string{"MAX(id)", "MIN(b)"}},
		{from: "t", items: []string{"b", "a", "COUNT(c)"}, groupBy: "b, a", hidden: []string{"SUM(id)"}},
		{from: "t", items: []string{"COUNT(*)", "a"}, groupBy: "a", distinct: true},
		{from: "t JOIN u ON t.a = u.k", items: []string{"t.id", "u.id", "u.w", "t.b"}, hidden: []string{"t.c", "u.w - t.a"}},
		{from: "t LEFT JOIN u ON t.id = u.tid", items: []string{"t.id", "u.w", "t.a"}, hidden: []string{"u.id"}},
		{from: "t LEFT JOIN u ON t.a = u.k", items: []string{"t.b", "COUNT(u.id)", "MAX(u.w)"}, groupBy: "t.b", hidden: []string{"SUM(t.id)"}},
		{from: "t JOIN u ON t.id = u.tid", items: []string{"u.w", "t.a"}, distinct: true},
	}
	ints := func(n int) []sqlval.Value {
		vals := make([]sqlval.Value, n)
		for i := range vals {
			vals[i] = sqlval.Int(int64(i))
		}
		return vals
	}
	for _, n := range []int{0, 1, 5, 17, 40} {
		e := New("topk")
		s := e.NewSession()
		mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b VARCHAR, c FLOAT)")
		mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, tid INTEGER, k INTEGER, w INTEGER)")
		mustExec(t, s, "CREATE INDEX u_tid ON u (tid)")
		for id := 0; id < n; id++ {
			mustExecParams(t, s, "INSERT INTO t (id, a, b, c) VALUES (?, ?, ?, ?)", sqlval.Int(int64(id)),
				randVal(rng, 5, ints(3)...), randVal(rng, 5, sqlval.String_("x"), sqlval.String_("y")),
				randVal(rng, 4, sqlval.Float(0.5), sqlval.Float(1)))
			mustExecParams(t, s, "INSERT INTO u (id, tid, k, w) VALUES (?, ?, ?, ?)", sqlval.Int(int64(id)),
				randVal(rng, 6, ints(n)...), randVal(rng, 5, ints(3)...), randVal(rng, 5, ints(4)...))
		}

		for q := 0; q < 150; q++ {
			f := families[rng.Intn(len(families))]
			items := make([]string, len(f.items))
			for i, it := range f.items {
				items[i] = fmt.Sprintf("%s AS c%d", it, i+1)
			}
			head := "SELECT "
			if f.distinct {
				head += "DISTINCT "
			}
			tail := " FROM " + f.from
			if rng.Intn(3) == 0 {
				tail += " WHERE t.id % 3 <> 1"
			}
			if f.groupBy != "" {
				tail += " GROUP BY " + f.groupBy
			}

			// The keys, each with the column of the reference row it reads.
			type key struct {
				col  int
				desc bool
			}
			var keys []key
			var keySQL, extra []string
			for i := 1 + rng.Intn(3); i > 0; i-- {
				k := key{desc: rng.Intn(2) == 0}
				var sql string
				if f.distinct || rng.Intn(3) == 0 {
					k.col = rng.Intn(len(items))
					sql = fmt.Sprintf("c%d", k.col+1)
					if rng.Intn(2) == 0 {
						sql = fmt.Sprint(k.col + 1)
					}
				} else {
					k.col = len(items) + len(extra)
					sql = f.hidden[rng.Intn(len(f.hidden))]
					extra = append(extra, sql)
				}
				if k.desc {
					sql += " DESC"
				}
				keys, keySQL = append(keys, k), append(keySQL, sql)
			}
			ordered := rng.Intn(8) != 0

			ref := mustExec(t, s, head+strings.Join(append(append([]string(nil), items...), extra...), ", ")+tail).Rows
			want := make([][]sqlval.Value, len(ref))
			copy(want, ref)
			if ordered {
				sort.SliceStable(want, func(i, j int) bool {
					for _, k := range keys {
						if c := sqlval.Compare(want[i][k.col], want[j][k.col]); c != 0 {
							return c < 0 != k.desc
						}
					}
					return false
				})
			}
			for i := range want {
				want[i] = want[i][:len(items)]
			}

			m := len(want)
			limit := []int{0, 1, m / 2, max(m-1, 0), m, m + 2}[rng.Intn(6)]
			offset := []int{-1, 0, 0, 1, m / 3, m, m + 3}[rng.Intn(7)]
			sql := head + strings.Join(items, ", ") + tail
			if ordered {
				sql += " ORDER BY " + strings.Join(keySQL, ", ")
			}
			var params []sqlval.Value
			if rng.Intn(2) == 0 {
				sql += " LIMIT ?"
				params = append(params, sqlval.Int(int64(limit)))
				if offset >= 0 {
					sql += " OFFSET ?"
					params = append(params, sqlval.Int(int64(offset)))
				}
			} else {
				sql += fmt.Sprintf(" LIMIT %d", limit)
				if offset >= 0 {
					sql += fmt.Sprintf(" OFFSET %d", offset)
				}
			}
			lo := min(max(offset, 0), m)
			sameRows(t, fmt.Sprintf("%s %v", sql, params), mustExecParams(t, s, sql, params...), want[lo:min(lo+limit, m)])
		}
		s.Close()
	}
}

// TestTopKReturnsTheValuesItOrderedBy: a grouped top-K projects only the
// groups it keeps, after ordering them, so an output column ORDER BY read
// must come out as the value it was ordered by, even when evaluating its
// item again gives another (RAND()).
func TestTopKReturnsTheValuesItOrderedBy(t *testing.T) {
	s := New("topkrand").NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE r (id INTEGER PRIMARY KEY, g INTEGER)")
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO r (id, g) VALUES (%d, %d)", i, i%20))
	}
	for _, sql := range []string{
		"SELECT g, RAND() AS x FROM r GROUP BY g ORDER BY x LIMIT 10",
		"SELECT g, RAND() FROM r GROUP BY g ORDER BY 2 DESC LIMIT 5 OFFSET 3",
	} {
		res := mustExec(t, s, sql)
		desc := strings.Contains(sql, "DESC")
		for i := 1; i < len(res.Rows); i++ {
			if c := sqlval.Compare(res.Rows[i-1][1], res.Rows[i][1]); c != 0 && c > 0 != desc {
				t.Fatalf("%s: rows %d and %d out of order: %v", sql, i-1, i, res.Rows)
			}
		}
	}
}
