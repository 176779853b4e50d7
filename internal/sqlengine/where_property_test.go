package sqlengine

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// predGen generates random predicates over a list of columns, collecting
// the values of the placeholders it writes, in text order. It writes a
// column c as {c}, for plain and generic to spell.
type predGen struct {
	rng    *rand.Rand
	cols   []string // t's columns as the predicate names them
	strs   []string // the string columns among them
	params []sqlval.Value
}

var (
	wpInts    = []sqlval.Value{sqlval.Int(-3), sqlval.Int(0), sqlval.Int(1), sqlval.Int(2), sqlval.Int(7)}
	wpFloats  = []sqlval.Value{sqlval.Float(0.5), sqlval.Float(2), sqlval.Float(-1.25), sqlval.Float(7)}
	wpStrings = []sqlval.Value{
		sqlval.String_("abc"), sqlval.String_("ABC"), sqlval.String_("Kelvin"), sqlval.String_("kelvin"),
		sqlval.String_("İstanbul"), sqlval.String_("istanbul"), sqlval.String_(""), sqlval.String_("a_b"),
		sqlval.String_("100%"), sqlval.String_("2"),
	}
	wpPatterns = []string{
		"%a%", "A%", "%c", "abc", "K%", "k%", "%İ%", "i%", "_bc", "%", "", "%%",
		"a_b", "%b%c%", "İstanbul", "%elvin", "1%", "%0%", "_", "%K%",
	}
)

// operand is a literal or a placeholder for v.
func (g *predGen) operand(v sqlval.Value) string {
	if g.rng.Intn(2) == 0 {
		g.params = append(g.params, v)
		return "?"
	}
	return v.SQLLiteral()
}

// value draws a constant of any kind, NULL now and then.
func (g *predGen) value() sqlval.Value {
	switch g.rng.Intn(7) {
	case 0:
		return sqlval.Null
	case 1, 2:
		return wpInts[g.rng.Intn(len(wpInts))]
	case 3:
		return wpFloats[g.rng.Intn(len(wpFloats))]
	}
	return wpStrings[g.rng.Intn(len(wpStrings))]
}

func (g *predGen) col() string  { return "{" + g.cols[g.rng.Intn(len(g.cols))] + "}" }
func (g *predGen) scol() string { return "{" + g.strs[g.rng.Intn(len(g.strs))] + "}" }

var colMark = regexp.MustCompile(`\{(\w+)\}`)

// plain spells a generated predicate's columns as themselves, so that a
// comparison or LIKE of a column with a constant binds to a leaf.
func plain(p string) string { return colMark.ReplaceAllString(p, "$1") }

// generic spells each column c as COALESCE(c, NULL), the same value
// through a call, so that no comparison binds to a leaf and every operator
// evaluates in its general form.
func generic(p string) string { return colMark.ReplaceAllString(p, "COALESCE($1, NULL)") }

// leaf is a comparison or LIKE of a column with a constant, the shape an
// execution can test on the column's value alone.
func (g *predGen) leaf() string {
	if g.rng.Intn(3) == 0 {
		not := []string{"", "NOT "}[g.rng.Intn(2)]
		col := g.col()
		if g.rng.Intn(3) > 0 {
			col = g.scol()
		}
		switch g.rng.Intn(6) {
		case 0:
			return col + " " + not + "LIKE NULL"
		case 1, 2:
			return col + " " + not + "LIKE " + sqlval.String_(wpPatterns[g.rng.Intn(len(wpPatterns))]).SQLLiteral()
		}
		g.params = append(g.params, sqlval.String_(wpPatterns[g.rng.Intn(len(wpPatterns))]))
		return col + " " + not + "LIKE ?"
	}
	op := []string{"=", "<>", "<", "<=", ">", ">="}[g.rng.Intn(6)]
	if g.rng.Intn(2) == 0 {
		return g.col() + " " + op + " " + g.operand(g.value())
	}
	c := g.operand(g.value())
	return c + " " + op + " " + g.col()
}

// pred is a random predicate of depth at most d.
func (g *predGen) pred(d int) string {
	if d > 0 && g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return "NOT (" + g.pred(d-1) + ")"
		case 1:
			l := g.pred(d - 1)
			return "(" + l + " AND " + g.pred(d-1) + ")"
		}
		l := g.pred(d - 1)
		return "(" + l + " OR " + g.pred(d-1) + ")"
	}
	not := []string{"", "NOT "}[g.rng.Intn(2)]
	switch g.rng.Intn(12) {
	case 0:
		col := g.col()
		items := []string{g.operand(g.value()), "NULL", g.operand(g.value())}
		g.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return col + " " + not + "IN (" + strings.Join(items, ", ") + ")"
	case 1:
		col := g.col()
		lo := g.operand(g.value())
		return col + " " + not + "BETWEEN " + lo + " AND " + g.operand(g.value())
	case 2:
		return g.col() + " IS " + not + "NULL"
	case 3:
		col := g.scol()
		g.params = append(g.params, sqlval.String_(wpPatterns[g.rng.Intn(len(wpPatterns))]))
		return "(" + col + " || '') " + not + "LIKE ?"
	case 4:
		return "UPPER(" + g.scol() + ") = " + g.operand(g.value())
	case 5:
		return "LENGTH(" + g.scol() + ") > " + g.operand(wpInts[g.rng.Intn(len(wpInts))])
	case 6:
		return "COALESCE(" + g.col() + ", " + g.col() + ") = " + g.operand(g.value())
	case 7:
		return g.col() + " < " + g.col()
	case 8:
		return g.operand(g.value())
	}
	return g.leaf()
}

// wpDB is the oracle's database: t, indexed on k, and u, which joins t on
// t.k = u.uk and has more rows, so a join's last stage over t may build a
// filtered side.
func wpDB(t *testing.T, rng *rand.Rand) *Session {
	t.Helper()
	s := New("wherepart").NewSession()
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, i INTEGER, f FLOAT, s VARCHAR, s2 VARCHAR)")
	mustExec(t, s, "CREATE INDEX t_k ON t (k)")
	mustExec(t, s, "CREATE TABLE u (uid INTEGER PRIMARY KEY, uk INTEGER, ui INTEGER, us VARCHAR)")
	ks := []sqlval.Value{sqlval.Int(0), sqlval.Int(1), sqlval.Int(2), sqlval.Int(3), sqlval.Int(4), sqlval.Int(5)}
	for id := 0; id < 40; id++ {
		row := []sqlval.Value{sqlval.Int(int64(id)), randVal(rng, 7, ks...), randVal(rng, 5, wpInts...),
			randVal(rng, 5, wpFloats...), randVal(rng, 6, wpStrings...), randVal(rng, 4, wpStrings...)}
		lits := make([]string, len(row))
		for i, v := range row {
			lits[i] = v.SQLLiteral()
		}
		mustExec(t, s, "INSERT INTO t (id, k, i, f, s, s2) VALUES ("+strings.Join(lits, ", ")+")")
	}
	for id := 0; id < 60; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO u (uid, uk, ui, us) VALUES (%d, %s, %s, %s)", id,
			randVal(rng, 8, ks...).SQLLiteral(), randVal(rng, 5, wpInts...).SQLLiteral(), randVal(rng, 5, wpStrings...).SQLLiteral()))
	}
	return s
}

// wpExec executes sql with params, failing the test on an error.
func wpExec(t *testing.T, s *Session, sql string, params []sqlval.Value) *Result {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := s.Exec(&sqlparser.Bound{Stmt: st, SQL: sql, Params: params})
	if err != nil {
		t.Fatalf("%s %v: %v", sql, params, err)
	}
	return res
}

// rowIDs keys each row of res by its first n values.
func rowIDs(res *Result, n int) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = renderTyped(r[:n])
	}
	return out
}

// checkWherePartitions runs n random predicates p through three checks on
// three paths. Check 1: WHERE p, WHERE NOT (p) and WHERE (p) IS NULL
// partition the rows. Check 2: each row lands in the part SELECT (p) names
// for it, and SELECT (p) equals p evaluated with no leaf (generic), so a
// leaf and the general operator agree. Check 3: UPDATE … WHERE p affects
// as many rows as WHERE p returns. The paths: a full scan; an index
// narrowing the rows on k or id, the partitioned set being those rows; and
// the last stage of a join probing t by its k index, behind a leading leaf
// on t, so that stage filters a build side. UPDATE has no join, so check 3
// runs on the first two paths.
func checkWherePartitions(t *testing.T, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	s := wpDB(t, rng)
	defer s.Close()
	e := s.engine
	defer e.noIndexPlan.Store(false)
	for q := 0; q < n; q++ {
		path := rng.Intn(3)
		g := &predGen{rng: rng, cols: []string{"k", "i", "f", "s", "s2"}, strs: []string{"s", "s2"}}
		from, ids, base := "t", "id", ""
		switch path {
		case 1:
			base = []string{"k <= 3", "k = 2", "k IN (1, 4)", fmt.Sprintf("id = %d", rng.Intn(45))}[rng.Intn(4)]
		case 2:
			from, ids = "u JOIN t ON t.k = u.uk", "u.uid, t.id"
			base = plain(g.leaf())
			g.cols, g.strs = append(g.cols, "ui", "us"), append(g.strs, "us")
		}
		nb := len(g.params) // base's placeholders
		gp := g.pred(3)
		p, params := plain(gp), g.params
		// The projection names p and its generic form before base.
		projParams := append(append(append([]sqlval.Value{}, params[nb:]...), params[nb:]...), params[:nb]...)
		e.noIndexPlan.Store(path == 0)
		where := func(cond string) string {
			if base == "" {
				return " WHERE " + cond
			}
			return " WHERE " + base + " AND " + cond
		}
		all := "SELECT " + ids + " FROM " + from
		if base != "" {
			all += " WHERE " + base
		}
		nid := strings.Count(ids, ",") + 1
		whole := rowIDs(wpExec(t, s, all, params), nid)
		parts := map[string]string{} // row → the part that returned it
		for _, part := range []string{"TRUE", "FALSE", "NULL"} {
			cond := map[string]string{"TRUE": "(" + p + ")", "FALSE": "NOT (" + p + ")", "NULL": "(" + p + ") IS NULL"}[part]
			sql := "SELECT " + ids + " FROM " + from + where(cond)
			for _, id := range rowIDs(wpExec(t, s, sql, params), nid) {
				if prev, dup := parts[id]; dup {
					t.Fatalf("seed %d: row %s is in part %s and in part %s of %s %v", seed, id, prev, part, p, params)
				}
				parts[id] = part
			}
		}
		if len(parts) != len(whole) {
			t.Fatalf("seed %d: the parts of %s %v hold %d rows, %s returns %d", seed, p, params, len(parts), all, len(whole))
		}
		proj := "SELECT " + ids + ", (" + p + "), (" + generic(gp) + ") FROM " + from
		if base != "" {
			proj += " WHERE " + base
		}
		res := wpExec(t, s, proj, projParams)
		for _, r := range res.Rows {
			id, v := renderTyped(r[:nid]), r[nid]
			if renderTyped(r[nid:nid+1]) != renderTyped(r[nid+1:]) {
				t.Fatalf("seed %d: row %s projects %s = %v, and %v with no leaf %v", seed, id, p, v, r[nid+1], params)
			}
			want := "NULL"
			if !v.IsNull() {
				want = map[bool]string{true: "TRUE", false: "FALSE"}[v.AsBool()]
			}
			if got, ok := parts[id]; !ok || got != want {
				t.Fatalf("seed %d: row %s projects %s = %v, but WHERE put it in part %q", seed, id, p, v, got)
			}
		}
		if path == 2 {
			continue
		}
		trueRows := 0
		for _, part := range parts {
			if part == "TRUE" {
				trueRows++
			}
		}
		up := wpExec(t, s, "UPDATE t SET i = i"+where("("+p+")"), params)
		if up.RowsAffected != int64(trueRows) {
			t.Fatalf("seed %d: UPDATE … WHERE %s %v affected %d rows, SELECT returns %d", seed, p, params, up.RowsAffected, trueRows)
		}
	}
}

// TestPropertyWherePartitionsRows: WHERE and the projection of the same
// predicate agree, on every path WHERE is evaluated on.
func TestPropertyWherePartitionsRows(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		checkWherePartitions(t, seed, 150)
	}
}

// FuzzWherePartitions runs the partition oracle from fuzzed seeds.
func FuzzWherePartitions(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkWherePartitions(t, seed, 20)
	})
}

// TestExpressionErrorsSurfaceWhenEvaluated: an expression that cannot be
// evaluated fails the statement when, and only when, it is evaluated on a
// row. Over no candidate rows the statement succeeds; over one it fails
// with the error's exact text.
func TestExpressionErrorsSurfaceWhenEvaluated(t *testing.T) {
	_, s := testDB(t)
	cases := []struct{ sql, err string }{
		{"SELECT UPPER(i_title, i_id) FROM item WHERE i_id = %d", "engine: UPPER expects 1 argument(s), got 2"},
		{"SELECT i_id FROM item WHERE i_id = %d AND LENGTH() > 0", "engine: LENGTH expects 1 argument(s), got 0"},
		{"SELECT CEILING(i_cost, 1) FROM item WHERE i_id = %d", "engine: CEILING expects 1 argument(s), got 2"},
		{"SELECT NULLIF(i_id) FROM item WHERE i_id = %d", "engine: NULLIF expects 2 argument(s), got 1"},
		{"SELECT SUBSTR(i_title) FROM item WHERE i_id = %d", "engine: SUBSTR expects 2 or 3 arguments"},
		{"SELECT SUBSTRING(i_title, 1, 2, 3) FROM item WHERE i_id = %d", "engine: SUBSTR expects 2 or 3 arguments"},
		{"SELECT FROBNICATE(i_id) FROM item WHERE i_id = %d", "engine: unknown function FROBNICATE"},
		{"SELECT i_id FROM item WHERE i_id = %d AND SUM(i_cost) > 0", "engine: aggregate SUM outside grouped query"},
		{"SELECT i_id FROM item WHERE SUM(i_id) = 1 AND i_id = %d", "engine: aggregate SUM outside grouped query"},
		{"SELECT i_id, nope FROM item WHERE i_id = %d", `engine: unknown column "nope"`},
		{"SELECT i_id FROM item WHERE i_id = %d AND item.nope = 1", `engine: unknown column "item.nope"`},
		{"SELECT i_id, ? FROM item WHERE i_id = %d", "engine: unbound parameter ?1"},
		{"SELECT i_id FROM item WHERE i_id = %d AND i_title LIKE ?", "engine: unbound parameter ?1"},
		{"SELECT i_id FROM item WHERE i_id = %d AND ? < i_cost", "engine: unbound parameter ?1"},
		{"SELECT i_title FROM item JOIN author ON a_id = i_a_id WHERE i_id = %d AND a_name LIKE ?", "engine: unbound parameter ?1"},
		{"UPDATE item SET i_cost = ABS() WHERE i_id = %d", "engine: ABS expects 1 argument(s), got 0"},
		{"DELETE FROM item WHERE i_id = %d AND LOWER() = 'x'", "engine: LOWER expects 1 argument(s), got 0"},
		{"DELETE FROM item WHERE i_id = %d AND i_title = ?", "engine: unbound parameter ?1"},
	}
	for _, c := range cases {
		for _, id := range []int{999, 1} {
			sql := fmt.Sprintf(c.sql, id)
			st, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("parse %q: %v", sql, err)
			}
			_, err = s.Exec(st)
			switch {
			case id == 999 && err != nil:
				t.Errorf("%s over no rows: %v", sql, err)
			case id == 1 && (err == nil || err.Error() != c.err):
				t.Errorf("%s over one row: error %v, want %q", sql, err, c.err)
			}
		}
	}
}
