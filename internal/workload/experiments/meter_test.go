package experiments

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

func mustStmt(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// meteredBackend returns an enabled backend over a metered engine holding
// t (id, v) with the row (1, 0), and the meter.
func meteredBackend(t *testing.T) (*backend.Backend, *meteredDriver) {
	t.Helper()
	eng := sqlengine.New("db")
	s := eng.NewSession()
	for _, sql := range []string{"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", "INSERT INTO t (id, v) VALUES (1, 0)"} {
		if _, err := s.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	d := &meteredDriver{EngineDriver: &backend.EngineDriver{Engine: eng}}
	b := backend.New(backend.Config{Name: "db", Driver: d})
	b.Enable()
	t.Cleanup(b.Close)
	return b, d
}

func TestCostClasses(t *testing.T) {
	cases := []struct {
		sql  string
		want float64
	}{
		{"SELECT v FROM t WHERE id = 1", pointRead},
		{"SELECT * FROM t", scanRead},
		{"SELECT a FROM t JOIN u ON t.id = u.id WHERE t.id = 1", scanRead},
		{"SELECT COUNT(*) FROM t", heavyRead},
		{"SELECT a, SUM(b) FROM t GROUP BY a", heavyRead},
		{"INSERT INTO t (id) VALUES (1)", write},
		{"UPDATE t SET v = 1", write},
		{"DELETE FROM t", write},
		{"CREATE TEMPORARY TABLE x AS SELECT * FROM t", tempTable},
		{"CREATE TABLE y (a INTEGER)", ddl},
		{"DROP TABLE y", ddl},
		{"BEGIN", txOverhead},
		{"COMMIT", txOverhead},
	}
	for _, c := range cases {
		if got := cost(mustStmt(t, c.sql)); got != c.want {
			t.Errorf("cost(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}

// TestMeteredReadsChargeTheirClass: every read a backend executes reaches
// the meter once, at its class's weight.
func TestMeteredReadsChargeTheirClass(t *testing.T) {
	b, d := meteredBackend(t)
	for i := 0; i < 4; i++ {
		if _, err := b.Read(0, nil, "SELECT * FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.demand(); got != 4*scanRead {
		t.Errorf("demand = %v, want four scan reads of %v units", got, scanRead)
	}
}

// TestForcedAbortChargedAsDemarcation: AbortTx enqueues its ROLLBACK with no
// parsed statement, and a demarcation costs txOverhead whatever statement
// (if any) carries it — not the scanRead a nil statement classifies as.
func TestForcedAbortChargedAsDemarcation(t *testing.T) {
	b, d := meteredBackend(t)
	const tx = 7
	ins := "INSERT INTO t (id, v) VALUES (2, 0)"
	if out := <-b.EnqueueWrite(tx, sqlparser.ClassWrite, mustStmt(t, ins), ins); out.Err != nil {
		t.Fatal(out.Err)
	}
	if got := d.demand(); got != write {
		t.Fatalf("demand after the write = %v, want %v", got, write)
	}
	b.AbortTx(tx)
	if got := d.demand() - write; math.Abs(got-txOverhead) > 1e-9 {
		t.Errorf("forced abort charged %v units, want txOverhead %v", got, txOverhead)
	}
}

// countingDriver counts the connections a backend opens.
type countingDriver struct {
	*meteredDriver
	opens atomic.Int32
}

func (d *countingDriver) Open() (backend.Conn, error) {
	d.opens.Add(1)
	return d.meteredDriver.Open()
}

// A backend over the meter must take the same write path as one over the
// engine's own driver, or the figures account another program with the same
// operations and demand: the write's lock ticket is reserved at enqueue
// time, on a dedicated connection that is reset and reused, not opened per
// write.
func TestMeteredBackendKeepsEnqueueTimeTickets(t *testing.T) {
	eng := sqlengine.New("db")
	defer eng.Close()
	cd := &countingDriver{meteredDriver: &meteredDriver{EngineDriver: &backend.EngineDriver{Engine: eng}}}
	b := backend.New(backend.Config{Name: "db", Driver: cd})
	b.Enable()
	defer b.Close()

	setup := eng.NewSession()
	defer setup.Close()
	for _, sql := range []string{"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", "INSERT INTO t (id, v) VALUES (1, 0)"} {
		if _, err := setup.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	// A transaction outside the backend holds t's write lock, so the
	// backend's write cannot be granted yet.
	if err := setup.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.ExecSQL("UPDATE t SET v = 100 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	const sql = "UPDATE t SET v = v + 1 WHERE id = 1"
	st := mustStmt(t, sql)
	done := b.EnqueueWrite(0, sqlparser.ClassWrite, st, sql)
	// The ticket is queued by EnqueueWrite itself, before it returns;
	// execution-time locking would queue it whenever a worker got there.
	if got := eng.PendingTickets(); got != 1 {
		t.Fatalf("%d lock tickets queued when EnqueueWrite returned, want 1", got)
	}
	select {
	case out := <-done:
		t.Fatalf("write finished under a held lock: %+v", out)
	case <-time.After(10 * time.Millisecond):
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if out := <-done; out.Err != nil {
		t.Fatal(out.Err)
	}
	for i := 0; i < 20; i++ {
		if out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, st, sql); out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	// One dedicated connection, reset after each write and drawn again.
	// The fallback opens two: the probe it discards and a pooled one.
	if got := cd.opens.Load(); got != 1 {
		t.Errorf("backend opened %d connections for 21 sequential writes, want 1", got)
	}
	if got := cd.demand(); got != 21*write {
		t.Errorf("demand = %v, want 21 writes of %v units", got, write)
	}
	res, err := setup.ExecSQL("SELECT v FROM t WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 121 {
		t.Errorf("v = %v (%v), want 121", res, err)
	}
}
