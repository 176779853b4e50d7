package sqlengine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/sqlval"
)

// testDB creates an engine with a small catalogue used across tests.
func testDB(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := New("test", WithLockTimeout(500*time.Millisecond))
	s := e.NewSession()
	mustExec(t, s, `CREATE TABLE item (
		i_id INTEGER PRIMARY KEY,
		i_title VARCHAR NOT NULL,
		i_cost FLOAT,
		i_a_id INTEGER
	)`)
	mustExec(t, s, `CREATE TABLE author (a_id INTEGER PRIMARY KEY, a_name VARCHAR)`)
	mustExec(t, s, `INSERT INTO author (a_id, a_name) VALUES (1, 'Knuth'), (2, 'Lamport'), (3, 'Gray')`)
	mustExec(t, s, `INSERT INTO item (i_id, i_title, i_cost, i_a_id) VALUES
		(1, 'TAOCP', 150.0, 1),
		(2, 'Paxos Made Simple', 10.0, 2),
		(3, 'Transaction Processing', 90.0, 3),
		(4, 'LaTeX', 40.0, 2),
		(5, 'Art of Programming II', 120.0, 1)`)
	return e, s
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.ExecSQL(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, "SELECT i_id, i_title FROM item WHERE i_cost > 50 ORDER BY i_id")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][1].AsString() != "TAOCP" {
		t.Errorf("first row = %v", res.Rows[0])
	}
	if res.Columns[0] != "i_id" || res.Columns[1] != "i_title" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, "SELECT * FROM author ORDER BY a_id")
	if len(res.Columns) != 2 || len(res.Rows) != 3 {
		t.Fatalf("star: cols=%v rows=%d", res.Columns, len(res.Rows))
	}
}

func TestSelectQualifiedStar(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, "SELECT a.* FROM author a JOIN item i ON i.i_a_id = a.a_id WHERE i.i_id = 1")
	if len(res.Columns) != 2 || res.Rows[0][1].AsString() != "Knuth" {
		t.Fatalf("qualified star: %v %v", res.Columns, res.Rows)
	}
}

func TestWhereOperators(t *testing.T) {
	_, s := testDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"i_cost = 10.0", 1},
		{"i_cost <> 10.0", 4},
		{"i_cost >= 90", 3},
		{"i_cost < 40", 1},
		{"i_cost BETWEEN 40 AND 120", 3},
		{"i_cost NOT BETWEEN 40 AND 120", 2},
		{"i_id IN (1, 3, 5)", 3},
		{"i_id NOT IN (1, 3, 5)", 2},
		{"i_title LIKE '%of%'", 1},
		{"i_title LIKE 'taocp'", 1},   // LIKE is case-insensitive
		{"i_title NOT LIKE '%o%'", 1}, // only 'LaTeX' lacks an 'o'
		{"i_cost > 50 AND i_a_id = 1", 2},
		{"i_cost > 100 OR i_a_id = 3", 3},
		{"NOT (i_cost > 50)", 2},
		{"i_cost IS NULL", 0},
		{"i_cost IS NOT NULL", 5},
	}
	for _, c := range cases {
		res := mustExec(t, s, "SELECT i_id FROM item WHERE "+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "INSERT INTO item (i_id, i_title, i_cost, i_a_id) VALUES (6, 'Unknown', NULL, NULL)")
	// NULL comparisons never match.
	res := mustExec(t, s, "SELECT i_id FROM item WHERE i_cost = NULL")
	if len(res.Rows) != 0 {
		t.Error("= NULL must match nothing")
	}
	res = mustExec(t, s, "SELECT i_id FROM item WHERE i_cost <> 10")
	if len(res.Rows) != 4 { // row 6 has NULL cost, excluded
		t.Errorf("<> with NULL: %d rows", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT i_id FROM item WHERE i_cost IS NULL")
	if len(res.Rows) != 1 {
		t.Errorf("IS NULL: %d rows", len(res.Rows))
	}
	// Aggregates skip NULLs.
	res = mustExec(t, s, "SELECT COUNT(i_cost), COUNT(*) FROM item")
	if res.Rows[0][0].I != 5 || res.Rows[0][1].I != 6 {
		t.Errorf("COUNT with NULL: %v", res.Rows[0])
	}
}

func TestJoins(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, `SELECT i.i_title, a.a_name FROM item i JOIN author a ON i.i_a_id = a.a_id WHERE a.a_name = 'Knuth' ORDER BY i.i_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	// LEFT JOIN keeps unmatched left rows.
	mustExec(t, s, "INSERT INTO item (i_id, i_title, i_cost, i_a_id) VALUES (7, 'Anon', 5.0, 99)")
	res = mustExec(t, s, `SELECT i.i_id, a.a_name FROM item i LEFT JOIN author a ON i.i_a_id = a.a_id WHERE i.i_id = 7`)
	if len(res.Rows) != 1 || !res.Rows[0][1].IsNull() {
		t.Errorf("left join: %v", res.Rows)
	}
	// Cross join.
	res = mustExec(t, s, "SELECT COUNT(*) FROM item, author")
	if res.Rows[0][0].I != 6*3 {
		t.Errorf("cross join count = %v", res.Rows[0][0])
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, "SELECT SUM(i_cost), MIN(i_cost), MAX(i_cost), AVG(i_cost), COUNT(*) FROM item")
	row := res.Rows[0]
	if f, _ := row[0].AsFloat(); f != 410 {
		t.Errorf("SUM = %v", row[0])
	}
	if f, _ := row[1].AsFloat(); f != 10 {
		t.Errorf("MIN = %v", row[1])
	}
	if f, _ := row[2].AsFloat(); f != 150 {
		t.Errorf("MAX = %v", row[2])
	}
	if f, _ := row[3].AsFloat(); f != 82 {
		t.Errorf("AVG = %v", row[3])
	}
	if row[4].I != 5 {
		t.Errorf("COUNT = %v", row[4])
	}

	res = mustExec(t, s, `SELECT i_a_id, COUNT(*) AS n, SUM(i_cost) AS total FROM item GROUP BY i_a_id HAVING COUNT(*) > 1 ORDER BY n DESC, i_a_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("grouped rows = %d: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].I != 1 && res.Rows[0][0].I != 2 {
		t.Errorf("group key: %v", res.Rows[0])
	}

	// COUNT on empty set is one row of zero.
	res = mustExec(t, s, "SELECT COUNT(*) FROM item WHERE i_id > 1000")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Errorf("COUNT empty = %v", res.Rows)
	}

	// DISTINCT aggregate.
	res = mustExec(t, s, "SELECT COUNT(DISTINCT i_a_id) FROM item")
	if res.Rows[0][0].I != 3 {
		t.Errorf("COUNT DISTINCT = %v", res.Rows[0][0])
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, "SELECT i_id FROM item ORDER BY i_cost DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 5 {
		t.Fatalf("order/limit: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT i_id FROM item ORDER BY i_cost DESC LIMIT 2 OFFSET 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 3 {
		t.Fatalf("offset: %v", res.Rows)
	}
	// ORDER BY alias and by position.
	res = mustExec(t, s, "SELECT i_id, i_cost AS c FROM item ORDER BY c LIMIT 1")
	if res.Rows[0][0].I != 2 {
		t.Errorf("order by alias: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT i_id, i_cost FROM item ORDER BY 2 DESC LIMIT 1")
	if res.Rows[0][0].I != 1 {
		t.Errorf("order by position: %v", res.Rows)
	}
	// ORDER BY a column not in the select list.
	res = mustExec(t, s, "SELECT i_title FROM item ORDER BY i_cost LIMIT 1")
	if res.Rows[0][0].AsString() != "Paxos Made Simple" {
		t.Errorf("order by hidden column: %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, "SELECT DISTINCT i_a_id FROM item ORDER BY i_a_id")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct: %v", res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	_, s := testDB(t)
	res := mustExec(t, s, "UPDATE item SET i_cost = i_cost + 10 WHERE i_a_id = 1")
	if res.RowsAffected != 2 {
		t.Fatalf("update affected = %d", res.RowsAffected)
	}
	r := mustExec(t, s, "SELECT i_cost FROM item WHERE i_id = 1")
	if f, _ := r.Rows[0][0].AsFloat(); f != 160 {
		t.Errorf("updated cost = %v", r.Rows[0][0])
	}
	res = mustExec(t, s, "DELETE FROM item WHERE i_cost < 50")
	if res.RowsAffected != 2 {
		t.Fatalf("delete affected = %d", res.RowsAffected)
	}
	r = mustExec(t, s, "SELECT COUNT(*) FROM item")
	if r.Rows[0][0].I != 3 {
		t.Errorf("rows after delete = %v", r.Rows[0][0])
	}
}

func TestTransactionsCommitRollback(t *testing.T) {
	e, s := testDB(t)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO author (a_id, a_name) VALUES (10, 'Codd')")
	mustExec(t, s, "UPDATE author SET a_name = 'E.F. Codd' WHERE a_id = 10")
	mustExec(t, s, "COMMIT")
	r := mustExec(t, s, "SELECT a_name FROM author WHERE a_id = 10")
	if r.Rows[0][0].AsString() != "E.F. Codd" {
		t.Fatalf("committed value: %v", r.Rows)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "DELETE FROM author")
	mustExec(t, s, "INSERT INTO author (a_id, a_name) VALUES (42, 'Ghost')")
	mustExec(t, s, "UPDATE item SET i_cost = 0")
	mustExec(t, s, "ROLLBACK")

	r = mustExec(t, s, "SELECT COUNT(*) FROM author")
	if r.Rows[0][0].I != 4 {
		t.Errorf("authors after rollback = %v", r.Rows[0][0])
	}
	r = mustExec(t, s, "SELECT COUNT(*) FROM author WHERE a_id = 42")
	if r.Rows[0][0].I != 0 {
		t.Error("ghost row survived rollback")
	}
	r = mustExec(t, s, "SELECT SUM(i_cost) FROM item")
	if f, _ := r.Rows[0][0].AsFloat(); f != 410 {
		t.Errorf("item costs after rollback = %v", r.Rows[0][0])
	}
	if st := e.StatsSnapshot(); st.Aborts != 1 {
		t.Errorf("aborts = %d", st.Aborts)
	}
}

func TestTransactionErrors(t *testing.T) {
	_, s := testDB(t)
	if _, err := s.ExecSQL("COMMIT"); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("commit outside tx: %v", err)
	}
	if _, err := s.ExecSQL("ROLLBACK"); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("rollback outside tx: %v", err)
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.ExecSQL("BEGIN"); !errors.Is(err, ErrTxInProgress) {
		t.Errorf("nested begin: %v", err)
	}
	mustExec(t, s, "ROLLBACK")
}

func TestAutoCommitRollbackOnError(t *testing.T) {
	_, s := testDB(t)
	// Multi-row insert where the second row violates the primary key: the
	// whole statement must be undone.
	_, err := s.ExecSQL("INSERT INTO author (a_id, a_name) VALUES (50, 'X'), (1, 'Dup')")
	if err == nil {
		t.Fatal("expected unique violation")
	}
	r := mustExec(t, s, "SELECT COUNT(*) FROM author WHERE a_id = 50")
	if r.Rows[0][0].I != 0 {
		t.Error("partial insert not rolled back")
	}
}

func TestRollbackRestoresRowsOnCrossSessionVisibility(t *testing.T) {
	e, s := testDB(t)
	s2 := e.NewSession()
	defer s2.Close()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE author SET a_name = 'hidden' WHERE a_id = 1")
	mustExec(t, s, "ROLLBACK")
	r := mustExec(t, s2, "SELECT a_name FROM author WHERE a_id = 1")
	if r.Rows[0][0].AsString() != "Knuth" {
		t.Errorf("after rollback: %v", r.Rows[0][0])
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	_, s := testDB(t)
	if _, err := s.ExecSQL("INSERT INTO author (a_id, a_name) VALUES (1, 'Dup')"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	// Update to a conflicting key must fail too.
	if _, err := s.ExecSQL("UPDATE author SET a_id = 2 WHERE a_id = 1"); err == nil {
		t.Fatal("update to duplicate primary key accepted")
	}
	// Update keeping the same key is fine.
	mustExec(t, s, "UPDATE author SET a_id = 1 WHERE a_id = 1")
}

func TestNotNullEnforcement(t *testing.T) {
	_, s := testDB(t)
	if _, err := s.ExecSQL("INSERT INTO item (i_id, i_title) VALUES (100, NULL)"); err == nil {
		t.Fatal("NULL in NOT NULL column accepted")
	}
}

func TestAutoIncrement(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY AUTO_INCREMENT, name VARCHAR)")
	r1 := mustExec(t, s, "INSERT INTO u (name) VALUES ('a')")
	r2 := mustExec(t, s, "INSERT INTO u (name) VALUES ('b')")
	if r1.LastInsertID != 1 || r2.LastInsertID != 2 {
		t.Fatalf("auto ids = %d, %d", r1.LastInsertID, r2.LastInsertID)
	}
	// Explicit id bumps the counter.
	mustExec(t, s, "INSERT INTO u (id, name) VALUES (10, 'c')")
	r3 := mustExec(t, s, "INSERT INTO u (name) VALUES ('d')")
	if r3.LastInsertID != 11 {
		t.Fatalf("auto id after explicit = %d", r3.LastInsertID)
	}
	// Rollback restores the counter.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO u (name) VALUES ('e')")
	mustExec(t, s, "ROLLBACK")
	r4 := mustExec(t, s, "INSERT INTO u (name) VALUES ('f')")
	if r4.LastInsertID != 12 {
		t.Fatalf("auto id after rollback = %d", r4.LastInsertID)
	}
}

func TestDefaults(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE d (a INTEGER, b VARCHAR DEFAULT 'none', c FLOAT DEFAULT 1.5)")
	mustExec(t, s, "INSERT INTO d (a) VALUES (1)")
	r := mustExec(t, s, "SELECT b, c FROM d")
	if r.Rows[0][0].AsString() != "none" {
		t.Errorf("default b = %v", r.Rows[0][0])
	}
	if f, _ := r.Rows[0][1].AsFloat(); f != 1.5 {
		t.Errorf("default c = %v", r.Rows[0][1])
	}
}

func TestIndexUseAndCorrectness(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER, val VARCHAR)")
	mustExec(t, s, "CREATE INDEX idx_grp ON big (grp)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big (id, grp, val) VALUES (%d, %d, 'v%d')", i, i%10, i))
	}
	r := mustExec(t, s, "SELECT COUNT(*) FROM big WHERE grp = 3")
	if r.Rows[0][0].I != 20 {
		t.Fatalf("indexed count = %v", r.Rows[0][0])
	}
	// Index maintained across update and delete.
	mustExec(t, s, "UPDATE big SET grp = 99 WHERE id = 3")
	r = mustExec(t, s, "SELECT COUNT(*) FROM big WHERE grp = 3")
	if r.Rows[0][0].I != 19 {
		t.Fatalf("after update: %v", r.Rows[0][0])
	}
	mustExec(t, s, "DELETE FROM big WHERE grp = 99")
	r = mustExec(t, s, "SELECT COUNT(*) FROM big WHERE grp = 99")
	if r.Rows[0][0].I != 0 {
		t.Fatalf("after delete: %v", r.Rows[0][0])
	}
	ix, err := e.Indexes("big")
	if err != nil || len(ix) != 1 || ix[0].Name != "idx_grp" {
		t.Errorf("Indexes = %v, %v", ix, err)
	}
	mustExec(t, s, "DROP INDEX idx_grp ON big")
	ix, _ = e.Indexes("big")
	if len(ix) != 0 {
		t.Error("index not dropped")
	}
}

func TestUniqueIndex(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE u (a INTEGER, b INTEGER)")
	mustExec(t, s, "INSERT INTO u (a, b) VALUES (1, 1), (2, 2)")
	mustExec(t, s, "CREATE UNIQUE INDEX ux ON u (a)")
	if _, err := s.ExecSQL("INSERT INTO u (a, b) VALUES (1, 3)"); err == nil {
		t.Fatal("unique index violation accepted")
	}
	// Creating a unique index over duplicate data fails.
	mustExec(t, s, "INSERT INTO u (a, b) VALUES (3, 2)")
	if _, err := s.ExecSQL("CREATE UNIQUE INDEX ub ON u (b)"); err == nil {
		t.Fatal("unique index over duplicates accepted")
	}
}

func TestTemporaryTables(t *testing.T) {
	e, s := testDB(t)
	mustExec(t, s, `CREATE TEMPORARY TABLE best AS SELECT i_a_id, COUNT(*) AS n FROM item GROUP BY i_a_id`)
	r := mustExec(t, s, "SELECT COUNT(*) FROM best")
	if r.Rows[0][0].I != 3 {
		t.Fatalf("temp table rows = %v", r.Rows[0][0])
	}
	// Invisible to other sessions.
	s2 := e.NewSession()
	defer s2.Close()
	if _, err := s2.ExecSQL("SELECT * FROM best"); err == nil {
		t.Fatal("temp table visible to other session")
	}
	// Not in the catalog.
	for _, n := range e.TableNames() {
		if n == "best" {
			t.Fatal("temp table in catalog")
		}
	}
	mustExec(t, s, "DROP TABLE best")
	if _, err := s.ExecSQL("SELECT * FROM best"); err == nil {
		t.Fatal("temp table survived drop")
	}
}

func TestInsertSelect(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "CREATE TABLE cheap (id INTEGER, title VARCHAR)")
	mustExec(t, s, "INSERT INTO cheap SELECT i_id, i_title FROM item WHERE i_cost < 50")
	r := mustExec(t, s, "SELECT COUNT(*) FROM cheap")
	if r.Rows[0][0].I != 2 {
		t.Fatalf("insert-select rows = %v", r.Rows[0][0])
	}
}

func TestDropTable(t *testing.T) {
	e, s := testDB(t)
	mustExec(t, s, "DROP TABLE author")
	if _, err := s.ExecSQL("SELECT * FROM author"); err == nil {
		t.Fatal("dropped table still queryable")
	}
	var tnf *TableNotFoundError
	_, err := s.ExecSQL("DROP TABLE author")
	if !errors.As(err, &tnf) {
		t.Errorf("second drop: %v", err)
	}
	mustExec(t, s, "DROP TABLE IF EXISTS author")

	// Drop inside a transaction rolls back.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "DROP TABLE item")
	mustExec(t, s, "ROLLBACK")
	r := mustExec(t, s, "SELECT COUNT(*) FROM item")
	if r.Rows[0][0].I != 5 {
		t.Error("table not restored after rollback of DROP")
	}
	_ = e
}

func TestShowTablesAndMetadata(t *testing.T) {
	e, s := testDB(t)
	r := mustExec(t, s, "SHOW TABLES")
	if len(r.Rows) != 2 {
		t.Fatalf("show tables: %v", r.Rows)
	}
	sch, _, err := e.SnapshotTable("item")
	if err != nil || len(sch.Columns) != 4 || sch.Columns[0].Name != "i_id" {
		t.Fatalf("schema: %+v, %v", sch, err)
	}
	if !sch.Columns[0].PrimaryKey {
		t.Error("i_id should be primary key")
	}
	if _, _, err := e.SnapshotTable("none"); err == nil {
		t.Error("missing table schema should fail")
	}
}

func TestScalarFunctions(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	cases := []struct {
		expr string
		want string
	}{
		{"LENGTH('hello')", "5"},
		{"UPPER('abc')", "ABC"},
		{"LOWER('ABC')", "abc"},
		{"ABS(-4)", "4"},
		{"FLOOR(2.7)", "2"},
		{"CEIL(2.1)", "3"},
		{"ROUND(2.5)", "3"},
		{"COALESCE(NULL, NULL, 7)", "7"},
		{"IFNULL(NULL, 'x')", "x"},
		{"NULLIF(3, 3)", "NULL"},
		{"CONCAT('a', 'b', 'c')", "abc"},
		{"SUBSTR('hello', 2, 3)", "ell"},
		{"SUBSTR('hello', 2)", "ello"},
		{"MOD(7, 3)", "1"},
		{"'a' || 'b'", "ab"},
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"10 / 4", "2.5"},
		{"10 % 3", "1"},
	}
	for _, c := range cases {
		r := mustExec(t, s, "SELECT "+c.expr)
		if got := r.Rows[0][0].AsString(); got != c.want {
			t.Errorf("SELECT %s = %q, want %q", c.expr, got, c.want)
		}
	}
	// Unknown function errors.
	if _, err := s.ExecSQL("SELECT FROBNICATE(1)"); err == nil {
		t.Error("unknown function accepted")
	}
}

// TestCurrentDate: the engine evaluates CURRENT_DATE() — the controller's
// macro on writes — as today at midnight UTC, the value the macro's
// rewrite stores, so a read can compare against what a write wrote.
func TestCurrentDate(t *testing.T) {
	s := New("t").NewSession()
	defer s.Close()
	today := func() time.Time { return time.Now().UTC().Truncate(24 * time.Hour) }
	before := today()
	r := mustExec(t, s, "SELECT CURRENT_DATE()")
	if !today().Equal(before) {
		t.Skip("the UTC date changed during the test")
	}
	if got := r.Rows[0][0]; got.K != sqlval.KindTime || !got.Time().Equal(before) {
		t.Fatalf("CURRENT_DATE() = %v, want %v", got, before)
	}
}

func TestTypeCoercionOnInsert(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE c (i INTEGER, f FLOAT, s VARCHAR, b BOOLEAN, ts TIMESTAMP)")
	mustExec(t, s, "INSERT INTO c (i, f, s, b, ts) VALUES ('42', '2.5', 99, 1, '2004-06-27 10:00:00')")
	r := mustExec(t, s, "SELECT i, f, s, b, ts FROM c")
	row := r.Rows[0]
	if row[0].K != sqlval.KindInt || row[0].I != 42 {
		t.Errorf("i = %v", row[0])
	}
	if row[1].K != sqlval.KindFloat || row[1].Float64() != 2.5 {
		t.Errorf("f = %v", row[1])
	}
	if row[2].K != sqlval.KindString || row[2].S != "99" {
		t.Errorf("s = %v", row[2])
	}
	if row[3].K != sqlval.KindBool || !row[3].AsBool() {
		t.Errorf("b = %v", row[3])
	}
	if row[4].K != sqlval.KindTime || row[4].Time().Year() != 2004 {
		t.Errorf("ts = %v", row[4])
	}
	if _, err := s.ExecSQL("INSERT INTO c (i) VALUES ('not a number')"); err == nil {
		t.Error("bad coercion accepted")
	}
}

// The two timestamps are 2^64 ns apart, so their UnixNano values are equal.
func TestTimestampKeysOutsideUnixNanoRange(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, ts TIMESTAMP)")
	mustExec(t, s, "INSERT INTO t (id, ts) VALUES (1, '0001-01-01 00:00:00'), (2, '0585-07-21 23:34:33.709551616')")
	if r := mustExec(t, s, "SELECT ts, COUNT(*) FROM t GROUP BY ts"); len(r.Rows) != 2 {
		t.Errorf("GROUP BY ts: %v", r.Rows)
	}
	if _, err := s.ExecSQL("CREATE UNIQUE INDEX ux ON t (ts)"); err != nil {
		t.Fatalf("unique index over two distinct timestamps: %v", err)
	}
	r := mustExec(t, s, "SELECT id FROM t WHERE ts = '0585-07-21 23:34:33.709551616'")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Fatalf("indexed lookup: %v", r.Rows)
	}
}

// A timestamp read as text keeps its fraction of a second, in comparisons
// with string literals and when coerced into a VARCHAR column.
func TestTimestampAsTextKeepsFraction(t *testing.T) {
	_, s := testDB(t)
	mustExec(t, s, "CREATE TABLE t (ts TIMESTAMP, s VARCHAR)")
	mustExec(t, s, "INSERT INTO t (ts) VALUES ('2004-06-27 10:00:00.5')")
	if r := mustExec(t, s, "SELECT ts FROM t WHERE ts = '2004-06-27 10:00:00'"); len(r.Rows) != 0 {
		t.Errorf("whole-second literal matched: %v", r.Rows)
	}
	if r := mustExec(t, s, "SELECT ts FROM t WHERE ts = '2004-06-27 10:00:00.5'"); len(r.Rows) != 1 {
		t.Errorf("exact literal matched %d rows", len(r.Rows))
	}
	mustExec(t, s, "UPDATE t SET s = ts")
	if r := mustExec(t, s, "SELECT s FROM t"); r.Rows[0][0].S != "2004-06-27 10:00:00.5" {
		t.Errorf("VARCHAR copy = %v", r.Rows[0][0])
	}
}

func TestConcurrentReadersSharedLock(t *testing.T) {
	e, _ := testDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for j := 0; j < 50; j++ {
				if _, err := s.ExecSQL("SELECT COUNT(*) FROM item"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReadersDoNotBlockOnWriters(t *testing.T) {
	// Reads are nonblocking (like InnoDB's consistent reads): a reader
	// completes immediately even while a transaction holds the table's
	// exclusive lock, and never deadlocks against writers.
	e, _ := testDB(t)
	w := e.NewSession()
	defer w.Close()
	mustExec(t, w, "BEGIN")
	mustExec(t, w, "UPDATE item SET i_cost = 0 WHERE i_id = 1")

	r := e.NewSession()
	defer r.Close()
	start := time.Now()
	res, err := r.ExecSQL("SELECT i_cost FROM item WHERE i_id = 1")
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("reader blocked for %v on a write lock", elapsed)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mustExec(t, w, "ROLLBACK")
	// After rollback the original value is restored for everyone.
	res = mustExec(t, r, "SELECT i_cost FROM item WHERE i_id = 1")
	if f, _ := res.Rows[0][0].AsFloat(); f != 150 {
		t.Errorf("after rollback: %v", res.Rows[0][0])
	}
}

func TestLockTimeoutOnConflict(t *testing.T) {
	e := New("t", WithLockTimeout(50*time.Millisecond))
	s1 := e.NewSession()
	s2 := e.NewSession()
	defer s1.Close()
	defer s2.Close()
	mustExec(t, s1, "CREATE TABLE x (a INTEGER)")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "INSERT INTO x (a) VALUES (1)")
	_, err := s2.ExecSQL("INSERT INTO x (a) VALUES (2)")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("conflicting write: %v", err)
	}
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "INSERT INTO x (a) VALUES (2)")
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	e := New("t", WithLockTimeout(100*time.Millisecond))
	s0 := e.NewSession()
	mustExec(t, s0, "CREATE TABLE a (x INTEGER)")
	mustExec(t, s0, "CREATE TABLE b (x INTEGER)")
	mustExec(t, s0, "INSERT INTO a (x) VALUES (1)")
	mustExec(t, s0, "INSERT INTO b (x) VALUES (1)")

	s1 := e.NewSession()
	s2 := e.NewSession()
	defer s1.Close()
	defer s2.Close()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "UPDATE a SET x = 2")
	mustExec(t, s2, "UPDATE b SET x = 2")
	errCh := make(chan error, 2)
	go func() { _, err := s1.ExecSQL("UPDATE b SET x = 3"); errCh <- err }()
	go func() { _, err := s2.ExecSQL("UPDATE a SET x = 3"); errCh <- err }()
	e1, e2 := <-errCh, <-errCh
	if e1 == nil && e2 == nil {
		t.Fatal("deadlock not detected by either session")
	}
}

func TestSessionCloseRollsBack(t *testing.T) {
	e, _ := testDB(t)
	s := e.NewSession()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "DELETE FROM item")
	s.Close()
	s2 := e.NewSession()
	defer s2.Close()
	r := mustExec(t, s2, "SELECT COUNT(*) FROM item")
	if r.Rows[0][0].I != 5 {
		t.Errorf("close did not roll back: %v", r.Rows[0][0])
	}
	if _, err := s.ExecSQL("SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Errorf("closed session exec: %v", err)
	}
}

func TestEngineClose(t *testing.T) {
	e, s := testDB(t)
	e.Close()
	if _, err := s.ExecSQL("SELECT 1 FROM item"); !errors.Is(err, ErrClosed) {
		t.Errorf("closed engine exec: %v", err)
	}
}

func TestSnapshotTable(t *testing.T) {
	e, _ := testDB(t)
	sch, rows, err := e.SnapshotTable("author")
	if err != nil || len(rows) != 3 || len(sch.Columns) != 2 {
		t.Fatalf("snapshot: %v rows=%d", err, len(rows))
	}
	// Snapshot rows are copies.
	rows[0][1] = sqlval.String_("mutated")
	s := e.NewSession()
	defer s.Close()
	r := mustExec(t, s, "SELECT a_name FROM author WHERE a_id = 1")
	if r.Rows[0][0].AsString() != "Knuth" {
		t.Error("snapshot aliases storage")
	}
}

func TestBestSellerStyleTempTableFlow(t *testing.T) {
	// The TPC-W best-seller pattern: CREATE TEMP TABLE AS SELECT with
	// GROUP BY + ORDER BY + LIMIT, then join against it, then drop.
	_, s := testDB(t)
	mustExec(t, s, `CREATE TEMPORARY TABLE tmp AS
		SELECT i_a_id, SUM(i_cost) AS total FROM item GROUP BY i_a_id ORDER BY total DESC LIMIT 2`)
	r := mustExec(t, s, `SELECT a.a_name, t.total FROM tmp t JOIN author a ON a.a_id = t.i_a_id ORDER BY t.total DESC`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0].AsString() != "Knuth" {
		t.Errorf("top seller = %v", r.Rows[0][0])
	}
	mustExec(t, s, "DROP TABLE tmp")
}

func TestStatsCounters(t *testing.T) {
	e, s := testDB(t)
	before := e.StatsSnapshot()
	mustExec(t, s, "SELECT 1")
	mustExec(t, s, "INSERT INTO author (a_id, a_name) VALUES (77, 'S')")
	after := e.StatsSnapshot()
	if after.Reads != before.Reads+1 || after.Writes != before.Writes+1 {
		t.Errorf("stats: %+v -> %+v", before, after)
	}
}

// TestGroupAggregateOverEmptyTable: an aggregate query without GROUP BY
// forms one group even over no rows, and a bare column in its select list
// or HAVING reads NULL there (MySQL's answer) instead of indexing a
// zero-width row.
func TestGroupAggregateOverEmptyTable(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE e (x INTEGER, y VARCHAR)")
	mustExec(t, s, "CREATE TABLE f (x INTEGER)")
	for _, q := range []string{
		"SELECT x, COUNT(*) FROM e",
		"SELECT x, COUNT(*) FROM e HAVING x IS NULL",
		"SELECT e.x, COUNT(*) FROM e JOIN f ON e.x = f.x",
	} {
		res := mustExec(t, s, q)
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || !res.Rows[0][0].IsNull() || res.Rows[0][1].I != 0 {
			t.Errorf("%s = %v, want one row [NULL 0]", q, res.Rows)
		}
	}
	res := mustExec(t, s, "SELECT *, COUNT(*), SUM(x), MIN(y), AVG(x) FROM e")
	if len(res.Rows) != 1 || len(res.Rows[0]) != len(res.Columns) {
		t.Fatalf("SELECT * over an empty group: columns %v, rows %v", res.Columns, res.Rows)
	}
	if got := rowKey(res.Rows[0]); got != rowKey([]sqlval.Value{sqlval.Null, sqlval.Null, sqlval.Int(0), sqlval.Null, sqlval.Null, sqlval.Null}) {
		t.Errorf("SELECT * over an empty group = %v", res.Rows[0])
	}
	if res := mustExec(t, s, "SELECT x, COUNT(*) FROM e HAVING x IS NOT NULL"); len(res.Rows) != 0 {
		t.Errorf("HAVING x IS NOT NULL kept %v", res.Rows)
	}
	if res := mustExec(t, s, "SELECT x, COUNT(*) FROM e GROUP BY x"); len(res.Rows) != 0 {
		t.Errorf("GROUP BY over no rows = %v, want no groups", res.Rows)
	}
}

func TestCompactionPreservesRows(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE c (id INTEGER PRIMARY KEY)")
	for i := 0; i < 300; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO c (id) VALUES (%d)", i))
	}
	mustExec(t, s, "DELETE FROM c WHERE id % 2 = 0")
	r := mustExec(t, s, "SELECT COUNT(*) FROM c")
	if r.Rows[0][0].I != 150 {
		t.Fatalf("after delete: %v", r.Rows[0][0])
	}
	// Survivors still scannable in insertion order.
	r = mustExec(t, s, "SELECT id FROM c LIMIT 3")
	if r.Rows[0][0].I != 1 || r.Rows[1][0].I != 3 || r.Rows[2][0].I != 5 {
		t.Errorf("scan order after compaction: %v", r.Rows)
	}
}

func TestErrorMessagesNameTheTable(t *testing.T) {
	e := New("t")
	s := e.NewSession()
	_, err := s.ExecSQL("SELECT * FROM missing")
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("error should name the table: %v", err)
	}
}

// TestLimitSeesNoColumns: LIMIT and OFFSET are evaluated once, with no
// row, so a column in either fails the statement with the unknown-column
// error a VALUES row gives, over no matching rows and over one, instead of
// reading a row that is not there.
func TestLimitSeesNoColumns(t *testing.T) {
	_, s := testDB(t)
	for _, q := range []string{
		"SELECT i_id FROM item WHERE i_id = %d LIMIT i_id",
		"SELECT i_id FROM item WHERE i_id = %d LIMIT 1 OFFSET i_id",
		"SELECT i_id FROM item WHERE i_id = %d ORDER BY i_id LIMIT i_id",
	} {
		for _, id := range []int{999, 1} {
			sql := fmt.Sprintf(q, id)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s panics: %v", sql, r)
					}
				}()
				if _, err := s.ExecSQL(sql); err == nil || err.Error() != `engine: unknown column "i_id"` {
					t.Errorf("%s: error %v, want unknown column \"i_id\"", sql, err)
				}
			}()
		}
	}
}

// TestSelectWithoutFromBindsEveryClause: a SELECT without FROM yields one
// row, which WHERE, HAVING, LIMIT and OFFSET filter as they filter the
// rows of a table. HAVING without GROUP BY tests that one row, as WHERE
// does, and a filtered-out row's items are never evaluated. Every clause
// sees no columns, so a column in any of them fails the statement with
// the unknown-column error.
func TestSelectWithoutFromBindsEveryClause(t *testing.T) {
	_, s := testDB(t)
	for _, tc := range []struct {
		sql  string
		rows int
	}{
		{"SELECT 1", 1},
		{"SELECT 1 WHERE 1 = 1", 1},
		{"SELECT 1 WHERE 1 = 0", 0},
		{"SELECT 1 WHERE NULL", 0},
		{"SELECT 1 / 0 WHERE 1 = 0", 0},
		{"SELECT 1 HAVING 1 = 1", 1},
		{"SELECT 1 HAVING 1 = 0", 0},
		{"SELECT 1 LIMIT 0", 0},
		{"SELECT 1 LIMIT 1", 1},
		{"SELECT 1 LIMIT -1", 1},
		{"SELECT 1 LIMIT 1 OFFSET 0", 1},
		{"SELECT 1 LIMIT 5 OFFSET 1", 0},
		{"SELECT 1 LIMIT 1, 5", 0},
	} {
		res := mustExec(t, s, tc.sql)
		if len(res.Rows) != tc.rows || len(res.Columns) != 1 {
			t.Errorf("%s: %d rows and columns %v, want %d rows and one column", tc.sql, len(res.Rows), res.Columns, tc.rows)
		}
	}
	for _, sql := range []string{
		"SELECT 1 LIMIT nope",
		"SELECT 1 LIMIT 1 OFFSET nope",
		"SELECT 1 WHERE nope = 1",
		"SELECT 1 WHERE 1 = 0 LIMIT nope",
		"SELECT 1 HAVING nope = 1",
	} {
		if _, err := s.ExecSQL(sql); err == nil || err.Error() != `engine: unknown column "nope"` {
			t.Errorf("%s: error %v, want unknown column \"nope\"", sql, err)
		}
	}
}
