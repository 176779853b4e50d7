package sqlparser

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cjdbc/internal/sqlval"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE item (
		i_id INTEGER PRIMARY KEY AUTO_INCREMENT,
		i_title VARCHAR(60) NOT NULL,
		i_cost FLOAT DEFAULT 0,
		i_pub_date TIMESTAMP,
		i_data BLOB,
		i_avail BOOLEAN
	)`)
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Table != "item" || len(ct.Columns) != 6 {
		t.Fatalf("table=%q cols=%d", ct.Table, len(ct.Columns))
	}
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].AutoIncrement {
		t.Error("i_id should be auto-increment primary key")
	}
	if !ct.Columns[1].NotNull || ct.Columns[1].Type != sqlval.KindString {
		t.Error("i_title should be NOT NULL VARCHAR")
	}
	if ct.Columns[2].Default == nil {
		t.Error("i_cost should have a default")
	}
	if got := ct.Tables(); !reflect.DeepEqual(got, []string{"item"}) {
		t.Errorf("Tables() = %v", got)
	}
}

func TestParseCreateTemporaryTableAsSelect(t *testing.T) {
	st := mustParse(t, `CREATE TEMPORARY TABLE best AS SELECT ol_i_id, SUM(ol_qty) AS total FROM order_line GROUP BY ol_i_id ORDER BY total DESC LIMIT 50`)
	ct := st.(*CreateTable)
	if !ct.Temporary || ct.AsSelect == nil {
		t.Fatal("expected temporary AS SELECT table")
	}
	ts := ct.Tables()
	if len(ts) != 2 || ts[0] != "best" || ts[1] != "order_line" {
		t.Errorf("Tables() = %v", ts)
	}
}

func TestParseCreateTableTableLevelPK(t *testing.T) {
	st := mustParse(t, `CREATE TABLE ol (o_id INTEGER, ol_num INTEGER, PRIMARY KEY (o_id, ol_num))`)
	ct := st.(*CreateTable)
	if !reflect.DeepEqual(ct.PrimaryKey, []string{"o_id", "ol_num"}) {
		t.Errorf("PrimaryKey = %v", ct.PrimaryKey)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y''z')`)
	ins := st.(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("bad insert: %+v", ins)
	}
	if ins.Rows[1][1].Lit.S != "y'z" {
		t.Errorf("escaped quote: %q", ins.Rows[1][1].Lit.S)
	}
}

func TestParseInsertSelect(t *testing.T) {
	st := mustParse(t, `INSERT INTO archive SELECT * FROM orders WHERE o_date < '2000-01-01'`)
	ins := st.(*Insert)
	if ins.Query == nil {
		t.Fatal("expected INSERT ... SELECT")
	}
	ts := ins.Tables()
	if len(ts) != 2 {
		t.Errorf("Tables() = %v", ts)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	st := mustParse(t, `UPDATE item SET i_cost = i_cost * 1.1, i_title = ? WHERE i_id = 7`)
	up := st.(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("bad update: %+v", up)
	}
	if NumParams(up) != 1 {
		t.Errorf("NumParams = %d", NumParams(up))
	}

	st = mustParse(t, `DELETE FROM cart WHERE sc_id = 3 AND sc_qty <= 0`)
	del := st.(*Delete)
	if del.Where == nil {
		t.Fatal("expected WHERE")
	}
}

func TestParseSelectJoinsAndClauses(t *testing.T) {
	st := mustParse(t, `SELECT i.i_id, a.a_fname, COUNT(*) AS n
		FROM item i JOIN author a ON i.i_a_id = a.a_id LEFT JOIN stock s ON s.s_i_id = i.i_id
		WHERE i.i_cost BETWEEN 10 AND 20 AND a.a_lname LIKE 'B%' OR i.i_id IN (1, 2, 3)
		GROUP BY i.i_id, a.a_fname HAVING COUNT(*) > 1
		ORDER BY n DESC, i.i_id LIMIT 10 OFFSET 5`)
	sel := st.(*Select)
	if len(sel.From) != 3 {
		t.Fatalf("from = %d", len(sel.From))
	}
	if sel.From[1].Join != JoinInner || sel.From[2].Join != JoinLeft {
		t.Error("join kinds wrong")
	}
	if len(sel.GroupBy) != 2 || sel.Having == nil || len(sel.OrderBy) != 2 {
		t.Error("clauses missing")
	}
	if sel.Limit == nil || sel.Offset == nil {
		t.Error("limit/offset missing")
	}
	ts := sel.Tables()
	if !reflect.DeepEqual(ts, []string{"item", "author", "stock"}) {
		t.Errorf("Tables() = %v", ts)
	}
}

func TestParseMySQLLimitForm(t *testing.T) {
	sel := mustParse(t, `SELECT a FROM t LIMIT 5, 10`).(*Select)
	if v := sel.Limit.Lit.I; v != 10 {
		t.Errorf("limit = %d, want 10", v)
	}
	if v := sel.Offset.Lit.I; v != 5 {
		t.Errorf("offset = %d, want 5", v)
	}
}

func TestParseTransactions(t *testing.T) {
	if _, ok := mustParse(t, "BEGIN").(*Begin); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParse(t, "START TRANSACTION").(*Begin); !ok {
		t.Error("START TRANSACTION")
	}
	if _, ok := mustParse(t, "COMMIT;").(*Commit); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParse(t, "ROLLBACK").(*Rollback); !ok {
		t.Error("ROLLBACK")
	}
	if _, ok := mustParse(t, "ABORT").(*Rollback); !ok {
		t.Error("ABORT")
	}
	if _, ok := mustParse(t, "SHOW TABLES").(*ShowTables); !ok {
		t.Error("SHOW TABLES")
	}
}

func TestParseIndexStatements(t *testing.T) {
	ci := mustParse(t, "CREATE UNIQUE INDEX idx_a ON t (a, b)").(*CreateIndex)
	if !ci.Unique || ci.Table != "t" || len(ci.Columns) != 2 {
		t.Fatalf("bad index: %+v", ci)
	}
	di := mustParse(t, "DROP INDEX idx_a ON t").(*DropIndex)
	if di.Name != "idx_a" || di.Table != "t" {
		t.Fatalf("bad drop index: %+v", di)
	}
}

func TestParseComments(t *testing.T) {
	sel := mustParse(t, "SELECT a -- trailing\nFROM t /* block */ WHERE a = 1").(*Select)
	if len(sel.From) != 1 || sel.Where == nil {
		t.Fatal("comments broke parsing")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"INSERT INTO t VALUES (1",
		"UPDATE t SET",
		"CREATE TABLE t (a INTEGER",
		"SELECT a FROM t WHERE 'unterminated",
		"SELECT a FROM t WHERE a @ 3",
		"DROP TABLE",
		"SELECT a FROM t; SELECT b FROM u",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]StatementClass{
		"SELECT 1":                   ClassRead,
		"SHOW TABLES":                ClassRead,
		"INSERT INTO t VALUES (1)":   ClassWrite,
		"UPDATE t SET a = 1":         ClassWrite,
		"DELETE FROM t":              ClassWrite,
		"CREATE TABLE t (a INTEGER)": ClassWrite,
		"DROP TABLE t":               ClassWrite,
		"CREATE INDEX i ON t (a)":    ClassWrite,
		"BEGIN":                      ClassBegin,
		"COMMIT":                     ClassCommit,
		"ROLLBACK":                   ClassRollback,
	}
	for sql, want := range cases {
		st := mustParse(t, sql)
		if got := Classify(st); got != want {
			t.Errorf("Classify(%q) = %v, want %v", sql, got, want)
		}
	}
}

func TestMacroDetectionAndRewrite(t *testing.T) {
	st := mustParse(t, "INSERT INTO orders (o_date, o_disc) VALUES (NOW(), RAND())")
	if !HasMacros(st) {
		t.Fatal("macros not detected")
	}
	now := time.Date(2004, 6, 27, 12, 0, 0, 0, time.UTC)
	slots := SlotMacros(st)
	if HasMacros(st) {
		t.Fatal("macros survived slotting")
	}
	if want := []Slot{{Macro: "NOW"}, {Macro: "RAND"}}; !reflect.DeepEqual(slots, want) {
		t.Fatalf("slots %v, want %v", slots, want)
	}
	vec := FillSlots(slots, nil, now, rand.New(rand.NewSource(42)))
	if vec[0].K != sqlval.KindTime || !vec[0].Time().Equal(now) {
		t.Error("NOW() slot not filled with the fixed time")
	}
	if vec[1].K != sqlval.KindFloat {
		t.Error("RAND() slot not filled with a float")
	}

	// Two fills with the same seed produce the same SQL: determinism
	// across replicas, the property §2.4.1 requires.
	st2 := mustParse(t, "INSERT INTO orders (o_date, o_disc) VALUES (NOW(), RAND())")
	vec2 := FillSlots(SlotMacros(st2), nil, now, rand.New(rand.NewSource(42)))
	if RenderParams(st, vec) != RenderParams(st2, vec2) {
		t.Error("macro slot filling is not deterministic")
	}
}

// TestCurrentDateRewritesToMidnight: CURRENT_DATE() is a date, so its slot
// is filled with the day of now at midnight UTC, not now with its time of
// day.
func TestCurrentDateRewritesToMidnight(t *testing.T) {
	st := mustParse(t, "INSERT INTO orders (o_date) VALUES (CURRENT_DATE())")
	now := time.Date(2004, 6, 27, 12, 30, 5, 7, time.UTC)
	vec := FillSlots(SlotMacros(st), nil, now, rand.New(rand.NewSource(1)))
	want := time.Date(2004, 6, 27, 0, 0, 0, 0, time.UTC)
	if got := vec[0]; len(vec) != 1 || got.K != sqlval.KindTime || !got.Time().Equal(want) {
		t.Fatalf("CURRENT_DATE() filled as %s, want %v", RenderParams(st, vec), want)
	}
}

// TestBareDateTimeMacrosAreCalls: the SQL-standard bare forms
// CURRENT_TIMESTAMP and CURRENT_DATE are the same macro calls as their
// parenthesised forms, in any case and in every clause, so HasMacros sees
// them; a qualified t.current_date stays a column.
func TestBareDateTimeMacrosAreCalls(t *testing.T) {
	for _, tc := range []struct{ bare, call string }{
		{"SELECT i_id, CURRENT_TIMESTAMP FROM item", "SELECT i_id, CURRENT_TIMESTAMP() FROM item"},
		{"SELECT current_date, i_id FROM item WHERE i_pub < Current_Date", "SELECT CURRENT_DATE(), i_id FROM item WHERE i_pub < CURRENT_DATE()"},
		{"UPDATE item SET i_pub = CURRENT_TIMESTAMP WHERE i_id = ?", "UPDATE item SET i_pub = CURRENT_TIMESTAMP() WHERE i_id = ?"},
		{"INSERT INTO orders (o_id, o_date) VALUES (1, CURRENT_DATE)", "INSERT INTO orders (o_id, o_date) VALUES (1, CURRENT_DATE())"},
	} {
		bare, call := mustParse(t, tc.bare), mustParse(t, tc.call)
		if !reflect.DeepEqual(bare, call) {
			t.Errorf("%s parses as %s, want the tree of %s", tc.bare, Render(bare), tc.call)
		}
		if !HasMacros(bare) {
			t.Errorf("%s: HasMacros false", tc.bare)
		}
	}
	st := mustParse(t, "SELECT o.current_date FROM orders o")
	if e := st.(*Select).Items[0].Expr; e.Kind != ExprColumn || e.Table != "o" || e.Column != "current_date" {
		t.Errorf("o.current_date parses as %s", Render(st))
	}
}

func TestBindParams(t *testing.T) {
	st := mustParse(t, "UPDATE t SET a = ?, b = ? WHERE c = ?")
	err := BindParams(st, []sqlval.Value{sqlval.Int(1), sqlval.String_("x"), sqlval.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if NumParams(st) != 0 {
		t.Error("params remain after bind")
	}
	rendered := Render(st)
	if !strings.Contains(rendered, "'x'") || !strings.Contains(rendered, "= 3") {
		t.Errorf("bound render: %s", rendered)
	}

	st = mustParse(t, "SELECT a FROM t WHERE b = ?")
	if err := BindParams(st, nil); err == nil {
		t.Error("missing param must fail")
	}
	// An extra value has no placeholder to go to: refused, not dropped.
	st = mustParse(t, "SELECT a FROM t WHERE b = ?")
	var be *BindError
	if err := BindParams(st, []sqlval.Value{sqlval.Int(1), sqlval.Int(2)}); !errors.As(err, &be) || be.Index != 1 || be.Have != 2 {
		t.Errorf("extra param: %v", err)
	}
}

// TestRenderParamsIsTheBoundRendering: rendering a tree with a vector, or a
// Bound, gives the text of a bound clone, and leaves the tree's
// placeholders in place.
func TestRenderParamsIsTheBoundRendering(t *testing.T) {
	params := []sqlval.Value{sqlval.String_(`it's \`), sqlval.Null, sqlval.Int(-9), sqlval.Float(0.5)}
	for _, sql := range []string{
		"UPDATE t SET a = ?, b = ? WHERE c IN (?, 1) AND d BETWEEN ? AND 2",
		"SELECT a, ? FROM t WHERE b = ? ORDER BY ? LIMIT ? OFFSET 1",
		"INSERT INTO t (a, b, c, d) VALUES (?, ?, ?, ?)",
	} {
		st := mustParse(t, sql)
		clone := st.Clone()
		if err := BindParams(clone, params); err != nil {
			t.Fatal(err)
		}
		want := Render(clone)
		if got := RenderParams(st, params); got != want {
			t.Errorf("RenderParams = %q, want %q", got, want)
		}
		if got := Render(&Bound{Stmt: st, SQL: sql, Params: params}); got != want {
			t.Errorf("Render(Bound) = %q, want %q", got, want)
		}
		if got := Render(st); got != RenderParams(st, nil) || !strings.Contains(got, "?") {
			t.Errorf("Render(tree) = %q: placeholders lost", got)
		}
	}
}

func TestWrittenColumns(t *testing.T) {
	st := mustParse(t, "UPDATE t SET A = 1, b = 2")
	if got := WrittenColumns(st); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("WrittenColumns = %v", got)
	}
	st = mustParse(t, "INSERT INTO t (X) VALUES (1)")
	if got := WrittenColumns(st); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("WrittenColumns = %v", got)
	}
	st = mustParse(t, "DELETE FROM t")
	if got := WrittenColumns(st); got != nil {
		t.Errorf("WrittenColumns(delete) = %v", got)
	}
}

func TestReadColumns(t *testing.T) {
	cols, ok := ReadColumns(mustParse(t, "SELECT a, b FROM t WHERE c = 1"))
	if !ok || len(cols) != 3 {
		t.Errorf("ReadColumns = %v, %v", cols, ok)
	}
	_, ok = ReadColumns(mustParse(t, "SELECT * FROM t"))
	if ok {
		t.Error("SELECT * must report not-enumerable")
	}
}

// Round-trip property: Render(Parse(sql)) parses to the same rendering.
func TestRenderRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT a, b AS x FROM t WHERE (a = 1 AND b < 2) OR c LIKE 'p%' ORDER BY a DESC LIMIT 3",
		"SELECT COUNT(*), SUM(a), MIN(b), MAX(c), AVG(d) FROM t GROUP BY e HAVING COUNT(*) > 2",
		"SELECT DISTINCT t.a FROM t JOIN u ON t.id = u.id LEFT JOIN v ON v.id = t.id",
		"INSERT INTO t (a, b) VALUES (1, 'it''s'), (NULL, TRUE)",
		"UPDATE t SET a = a + 1 WHERE b IN (1, 2, 3) AND c IS NOT NULL",
		"DELETE FROM t WHERE a BETWEEN 1 AND 10",
		"CREATE TABLE t (a INTEGER PRIMARY KEY AUTO_INCREMENT, b VARCHAR NOT NULL, c FLOAT DEFAULT 1.5)",
		"CREATE TEMPORARY TABLE tt AS SELECT a FROM t",
		"CREATE UNIQUE INDEX i ON t (a)",
		"DROP TABLE IF EXISTS t",
		"DROP INDEX i ON t",
		"BEGIN", "COMMIT", "ROLLBACK", "SHOW TABLES",
		"SELECT a FROM t WHERE b = ? AND c > ?",
		"SELECT -a, NOT (b = 1), a || b FROM t",
		"SELECT a FROM t WHERE x NOT LIKE 'a%' AND y NOT IN (1) AND z NOT BETWEEN 1 AND 2",
	}
	for _, q := range queries {
		st1 := mustParse(t, q)
		r1 := Render(st1)
		st2, err := Parse(r1)
		if err != nil {
			t.Errorf("re-parse of %q (rendered %q): %v", q, r1, err)
			continue
		}
		r2 := Render(st2)
		if r1 != r2 {
			t.Errorf("render not a fixpoint:\n  orig: %s\n  r1:   %s\n  r2:   %s", q, r1, r2)
		}
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	sel := mustParse(t, "SELECT `a` FROM `my table` WHERE \"b\" = 1").(*Select)
	if sel.From[0].Table != "my table" {
		t.Errorf("quoted table = %q", sel.From[0].Table)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	sel := mustParse(t, "select A from T where B = 1 order by A").(*Select)
	// Identifiers keep case for tables, columns lower-cased in expressions.
	if sel.From[0].Table != "T" {
		t.Errorf("table = %q", sel.From[0].Table)
	}
	if sel.Items[0].Expr.Column != "a" {
		t.Errorf("column = %q", sel.Items[0].Expr.Column)
	}
	if got := sel.Tables(); got[0] != "t" {
		t.Errorf("Tables() = %v", got)
	}
}
