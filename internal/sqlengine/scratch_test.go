package sqlengine

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc/internal/sqlval"
)

// deepCopy is a copy of r that shares no storage with it.
func deepCopy(r *Result) *Result {
	c := &Result{Columns: slices.Clone(r.Columns), RowsAffected: r.RowsAffected, LastInsertID: r.LastInsertID}
	if r.Rows != nil {
		c.Rows = make([][]sqlval.Value, len(r.Rows))
		for i, row := range r.Rows {
			c.Rows[i] = slices.Clone(row)
		}
	}
	return c
}

// scratchShapes are the read shapes execSelect's working lists serve, each
// taking a value that moves the rows it reads. With k = 0 they cover: a
// point read, a range read, a LIMIT that keeps 2 of 8 projected rows (so
// the survivors move to a slab of their own), DISTINCT, GROUP BY with
// HAVING, ORDER BY, and a join.
var scratchShapes = []string{
	"SELECT id, g, v FROM a WHERE id = %d",
	"SELECT id, v FROM a WHERE id >= %[1]d AND id < %[1]d + 10",
	"SELECT id, v FROM a WHERE g = %d %% 5 ORDER BY v DESC LIMIT 2",
	"SELECT DISTINCT g FROM a WHERE id < %d + 10",
	"SELECT g, COUNT(*), MAX(v) FROM a WHERE id <> %d GROUP BY g HAVING COUNT(*) > 1",
	"SELECT id, v FROM a WHERE id < %d + 20 ORDER BY v DESC",
	"SELECT a.v, b.w FROM a JOIN b ON a.id = b.a_id WHERE b.id < %d + 5",
}

// TestKeptResultsSurviveScratchReuse: a session reuses execSelect's working
// lists for every statement, and no result shares storage with them. The
// results of every read shape, of CREATE TEMPORARY TABLE … AS SELECT and of
// INSERT … SELECT, and the rows those two stored, stay byte-equal to copies
// taken when they were returned while 100 more statements of every shape
// run on the same session.
func TestKeptResultsSurviveScratchReuse(t *testing.T) {
	e := New("kept")
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE a (id INTEGER PRIMARY KEY, g INTEGER, v VARCHAR)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER, w VARCHAR)")
	mustExec(t, s, "CREATE TABLE c (id INTEGER, v VARCHAR)")
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO a (id, g, v) VALUES (%d, %d, 'a%02d')", i, i%5, i))
		mustExec(t, s, fmt.Sprintf("INSERT INTO b (id, a_id, w) VALUES (%d, %d, 'b%02d')", i, i*7%40, i))
	}

	type kept struct {
		sql       string
		res, want *Result
	}
	var keep []kept
	run := func(sql string) *Result {
		res := mustExec(t, s, sql)
		keep = append(keep, kept{sql, res, deepCopy(res)})
		return res
	}
	for _, shape := range scratchShapes {
		run(fmt.Sprintf(shape, 0))
	}
	run("CREATE TEMPORARY TABLE k0 AS SELECT id, v FROM a WHERE id < 10")
	run("INSERT INTO c (id, v) SELECT id, v FROM a WHERE g = 1")
	// What the two writes stored, read back now and again at the end.
	stored := []string{"SELECT id, v FROM k0 ORDER BY id", "SELECT id, v FROM c ORDER BY id"}
	for _, sql := range stored {
		run(sql)
	}
	if len(keep[2].res.Rows) != 2 {
		t.Fatalf("the LIMIT shape returned %d rows, want 2", len(keep[2].res.Rows))
	}

	for k := 1; k <= 100; k++ {
		for _, shape := range scratchShapes {
			mustExec(t, s, fmt.Sprintf(shape, k%40))
		}
		mustExec(t, s, fmt.Sprintf("CREATE TEMPORARY TABLE churn AS SELECT id, v FROM a WHERE id >= %d", k%40))
		mustExec(t, s, "INSERT INTO churn (id, v) SELECT a_id, w FROM b WHERE id < 20")
		mustExec(t, s, "DROP TABLE churn")
	}

	for _, k := range keep {
		if !reflect.DeepEqual(k.res, k.want) {
			t.Errorf("%s: kept result changed to\n  %v\nfrom\n  %v", k.sql, k.res, k.want)
		}
	}
	for i, sql := range stored {
		if got, want := mustExec(t, s, sql), keep[len(keep)-len(stored)+i].want; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stored rows changed to\n  %v\nfrom\n  %v", sql, got, want)
		}
	}
}

// TestSelectScratchPinsNoDroppedRow: the working lists a session keeps
// between SELECTs are cleared after each, so once a table is dropped none
// of its stored rows stays reachable through them. Each stored row carries
// a finalizer; after a collection every one must have run.
func TestSelectScratchPinsNoDroppedRow(t *testing.T) {
	e := New("pins")
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE d (id INTEGER PRIMARY KEY, g INTEGER, v VARCHAR)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO d (id, g, v) VALUES (%d, %d, 'v%d')", i, i%3, i))
	}
	var tracked, freed atomic.Int32
	for _, ch := range e.tables["d"].rows {
		row := ch.head.Load().row
		runtime.SetFinalizer(&row[0], func(*sqlval.Value) { freed.Add(1) })
		tracked.Add(1)
	}
	for _, sql := range []string{
		"SELECT x.v, y.v FROM d x JOIN d y ON x.id = y.g",
		"SELECT g, COUNT(*) FROM d GROUP BY g",
		"SELECT DISTINCT g FROM d",
		"SELECT id, v FROM d ORDER BY v DESC",
		"SELECT id, v FROM d WHERE id >= 2",
	} {
		mustExec(t, s, sql)
	}
	if cap(s.selRows) == 0 || cap(s.selOut) == 0 {
		t.Fatalf("the session kept no working lists (%d, %d): nothing to test", cap(s.selRows), cap(s.selOut))
	}
	mustExec(t, s, "DROP TABLE d")

	runtime.GC()
	for deadline := time.Now().Add(2 * time.Second); freed.Load() < tracked.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		runtime.GC()
	}
	if f := freed.Load(); f != tracked.Load() {
		t.Fatalf("%d of %d stored rows of the dropped table are still reachable", tracked.Load()-f, tracked.Load())
	}
	runtime.KeepAlive(s)
}
