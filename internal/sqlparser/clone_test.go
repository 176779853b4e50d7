package sqlparser

import (
	"testing"

	"cjdbc/internal/sqlval"
)

// cloneRoundTrip parses sql, clones it, and checks the clone renders
// identically to the original.
func cloneRoundTrip(t *testing.T, sql string) (orig, clone Statement) {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	cl := st.Clone()
	if got, want := Render(cl), Render(st); got != want {
		t.Fatalf("clone renders differently:\n orig  %s\n clone %s", want, got)
	}
	return st, cl
}

func TestCloneRendersIdentically(t *testing.T) {
	for _, sql := range []string{
		"SELECT DISTINCT a, b AS x, COUNT(*) FROM t AS s JOIN u ON s.id = u.id LEFT JOIN w ON u.k = w.k WHERE (a > 1 AND b IN (1, 2, 3)) OR c BETWEEN 4 AND 9 GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC, b LIMIT 10 OFFSET 5",
		"SELECT * FROM t WHERE name LIKE 'x%' AND v IS NOT NULL",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NOW())",
		"INSERT INTO t (a) SELECT b FROM u WHERE b > ?",
		"UPDATE t SET a = a + 1, b = ? WHERE id = ?",
		"DELETE FROM t WHERE id NOT IN (1, 2)",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR NOT NULL, n INTEGER DEFAULT 0)",
		"CREATE TABLE t2 AS SELECT a FROM t",
		"DROP TABLE IF EXISTS t",
		"CREATE UNIQUE INDEX ix ON t (a, b)",
		"DROP INDEX ix ON t",
		"BEGIN", "COMMIT", "ROLLBACK", "SHOW TABLES",
	} {
		cloneRoundTrip(t, sql)
	}
}

func TestCloneIsolatesBinding(t *testing.T) {
	st, cl := cloneRoundTrip(t, "UPDATE t SET b = ? WHERE id = ? AND v IN (?, ?)")
	before := Render(st)
	params := []sqlval.Value{sqlval.Int(7), sqlval.Int(1), sqlval.String_("a"), sqlval.String_("b")}
	if err := BindParams(cl, params); err != nil {
		t.Fatal(err)
	}
	if Render(st) != before {
		t.Fatal("binding into the clone mutated the original")
	}
	if NumParams(st) != 4 {
		t.Fatal("original lost placeholders")
	}
	if NumParams(cl) != 0 {
		t.Fatal("clone kept placeholders after binding")
	}
}

func TestCloneIsolatesMacroRewrite(t *testing.T) {
	st, cl := cloneRoundTrip(t, "INSERT INTO t (a, ts, r) VALUES (1, NOW(), RAND())")
	before := Render(st)
	SlotMacros(cl)
	if Render(st) != before {
		t.Fatal("slotting the clone's macros mutated the original")
	}
	if !HasMacros(st) {
		t.Fatal("original lost its macros")
	}
	if HasMacros(cl) {
		t.Fatal("clone kept macros after slotting")
	}
}

func TestCloneIsolatesInsertRows(t *testing.T) {
	st, cl := cloneRoundTrip(t, "INSERT INTO t (a) VALUES (?)")
	ins := cl.(*Insert)
	ins.Rows[0][0] = &Expr{Kind: ExprLiteral, Lit: sqlval.Int(42)}
	if NumParams(st) != 1 {
		t.Fatal("mutating clone rows affected the original")
	}
}
