package backend

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

func newTestBackend(t *testing.T) (*Backend, *sqlengine.Engine) {
	t.Helper()
	e := sqlengine.New("db1")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	b := New(Config{Name: "db1", Driver: &EngineDriver{Engine: e}})
	b.Enable()
	t.Cleanup(b.Close)
	return b, e
}

func TestStateMachine(t *testing.T) {
	b, _ := newTestBackend(t)
	if !b.Enabled() {
		t.Fatal("should be enabled")
	}
	b.Disable()
	if b.State() != StateDisabled {
		t.Fatal("should be disabled")
	}
	if _, err := b.Read(0, nil, "SELECT * FROM t"); !errors.Is(err, ErrDisabled) {
		t.Fatalf("read on disabled: %v", err)
	}
	out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'x')")
	if !errors.Is(out.Err, ErrDisabled) {
		t.Fatalf("write on disabled: %v", out.Err)
	}
	b.SetRecovering()
	if b.State() != StateRecovering || b.State().String() != "recovering" {
		t.Fatal("recovering state")
	}
	b.Enable()
	if _, err := b.Read(0, nil, "SELECT * FROM t"); err != nil {
		t.Fatalf("read after re-enable: %v", err)
	}
}

func TestAutoCommitReadWrite(t *testing.T) {
	b, _ := newTestBackend(t)
	out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'a')")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Res.RowsAffected != 1 {
		t.Fatalf("affected = %d", out.Res.RowsAffected)
	}
	res, err := b.Read(0, nil, "SELECT v FROM t WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "a" {
		t.Fatalf("read: %v %v", res, err)
	}
}

func TestTransactionalWritesAndLazyBegin(t *testing.T) {
	b, e := newTestBackend(t)
	const tx = uint64(42)
	if b.HasTx(tx) {
		t.Fatal("transaction should not exist before first statement (lazy begin)")
	}
	before := e.StatsSnapshot().Transactions

	out := <-b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'a')")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !b.HasTx(tx) {
		t.Fatal("transaction should have lazily begun")
	}
	if got := e.StatsSnapshot().Transactions; got != before+1 {
		t.Fatalf("engine transactions = %d, want %d", got, before+1)
	}

	// Uncommitted data invisible to an auto-commit read... the engine uses
	// table locks, so the read would block; read through the tx instead.
	res, err := b.Read(tx, nil, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("tx read: %v %v", res, err)
	}

	out = <-b.EnqueueWrite(tx, sqlparser.ClassCommit, mustStmt(t, "COMMIT"), "COMMIT")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if b.HasTx(tx) {
		t.Fatal("transaction should be gone after commit")
	}
	res, err = b.Read(0, nil, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("after commit: %v %v", res, err)
	}
}

func TestRollbackTx(t *testing.T) {
	b, _ := newTestBackend(t)
	const tx = uint64(7)
	<-b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (9, 'x')")
	out := <-b.EnqueueWrite(tx, sqlparser.ClassRollback, mustStmt(t, "ROLLBACK"), "ROLLBACK")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	res, err := b.Read(0, nil, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("after rollback: %v %v", res, err)
	}
}

func TestCommitWithoutLazyBeginIsNoop(t *testing.T) {
	b, e := newTestBackend(t)
	before := e.StatsSnapshot().Transactions
	out := <-b.EnqueueWrite(99, sqlparser.ClassCommit, mustStmt(t, "COMMIT"), "COMMIT")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if got := e.StatsSnapshot().Transactions; got != before {
		t.Fatal("commit of untouched transaction must not start one")
	}
}

func TestWriteOrderPreserved(t *testing.T) {
	b, _ := newTestBackend(t)
	// Enqueue interleaved inserts and updates; FIFO order means the final
	// value is deterministic.
	<-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'v0')")
	var last <-chan WriteOutcome
	for i := 1; i <= 50; i++ {
		last = b.EnqueueWrite(0, sqlparser.ClassWrite, nil,
			fmt.Sprintf("UPDATE t SET v = 'v%d' WHERE id = 1", i))
	}
	if out := <-last; out.Err != nil {
		t.Fatal(out.Err)
	}
	res, err := b.Read(0, nil, "SELECT v FROM t WHERE id = 1")
	if err != nil || res.Rows[0][0].AsString() != "v50" {
		t.Fatalf("final value: %v %v", res, err)
	}
}

func TestReadYourWritesInTransaction(t *testing.T) {
	b, _ := newTestBackend(t)
	const tx = uint64(5)
	// Enqueue a write and immediately read without waiting for the write's
	// outcome: the read must observe it.
	b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (3, 'w')")
	res, err := b.Read(tx, nil, "SELECT v FROM t WHERE id = 3")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].AsString() != "w" {
		t.Fatalf("read-your-writes: %v %v", res, err)
	}
	<-b.EnqueueWrite(tx, sqlparser.ClassRollback, mustStmt(t, "ROLLBACK"), "ROLLBACK")
}

func TestWriteFailureCallback(t *testing.T) {
	b, _ := newTestBackend(t)
	called := make(chan error, 1)
	b.OnWriteFailure(func(fb *Backend, err error) {
		if fb != b {
			t.Error("wrong backend in callback")
		}
		called <- err
	})
	out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO missing (id) VALUES (1)")
	if out.Err == nil {
		t.Fatal("write to missing table should fail")
	}
	select {
	case <-called:
	case <-time.After(time.Second):
		t.Fatal("failure callback not invoked")
	}
	if b.Failures() == 0 {
		t.Error("failure counter not bumped")
	}
}

func TestInjectFailure(t *testing.T) {
	b, _ := newTestBackend(t)
	boom := errors.New("disk on fire")
	b.InjectFailure(boom)
	if _, err := b.Read(0, nil, "SELECT * FROM t"); !errors.Is(err, boom) {
		t.Fatalf("injected read: %v", err)
	}
	out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'x')")
	if !errors.Is(out.Err, boom) {
		t.Fatalf("injected write: %v", out.Err)
	}
	b.InjectFailure(nil)
	if _, err := b.Read(0, nil, "SELECT * FROM t"); err != nil {
		t.Fatalf("healed read: %v", err)
	}
}

func TestPendingGauge(t *testing.T) {
	e := sqlengine.New("slow")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	b := New(Config{Name: "slow", Driver: &EngineDriver{Engine: e}})
	b.Enable()
	defer b.Close()
	b.SetFaultPlan(NewFaultPlan(Slow(OpRead, 20*time.Millisecond)))

	if b.Pending() != 0 {
		t.Fatal("pending should start at 0")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = b.Read(0, nil, "SELECT * FROM t")
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if b.Pending() == 0 {
		t.Error("pending should be non-zero during slow reads")
	}
	wg.Wait()
	if b.Pending() != 0 {
		t.Errorf("pending after completion = %d", b.Pending())
	}
}

func TestConnectionPoolReuse(t *testing.T) {
	b, _ := newTestBackend(t)
	for i := 0; i < 100; i++ {
		if _, err := b.Read(0, nil, "SELECT COUNT(*) FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	// The pool bounds connections; idle length cannot exceed MaxConns.
	if len(b.idle) > b.maxConns {
		t.Errorf("idle = %d > max %d", len(b.idle), b.maxConns)
	}
}

func TestConcurrentReadsBoundedByPool(t *testing.T) {
	e := sqlengine.New("db")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	b := New(Config{Name: "db", Driver: &EngineDriver{Engine: e}, MaxConns: 2})
	b.Enable()
	defer b.Close()
	b.SetFaultPlan(NewFaultPlan(Slow(OpRead, 2*time.Millisecond)))

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = b.Read(0, nil, "SELECT * FROM t")
		}()
	}
	wg.Wait()
	// 8 reads of 2ms with concurrency 2 need at least ~8ms.
	if elapsed := time.Since(start); elapsed < 6*time.Millisecond {
		t.Errorf("pool did not bound concurrency: %v", elapsed)
	}
}

func TestTableNamesViaMetadataAndShowTables(t *testing.T) {
	b, _ := newTestBackend(t)
	names, err := b.TableNames()
	if err != nil || len(names) != 1 || names[0] != "t" {
		t.Fatalf("metadata names: %v %v", names, err)
	}
	// Force the SHOW TABLES path with a driver that hides metadata.
	e := sqlengine.New("db2")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE u (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	b2 := New(Config{Name: "db2", Driver: opaqueDriver{&EngineDriver{Engine: e}}})
	b2.Enable()
	defer b2.Close()
	names, err = b2.TableNames()
	if err != nil || len(names) != 1 || names[0] != "u" {
		t.Fatalf("show tables names: %v %v", names, err)
	}
}

// opaqueDriver hides the SchemaProvider interface.
type opaqueDriver struct{ d Driver }

func (o opaqueDriver) Open() (Conn, error) { return o.d.Open() }

func TestCloseRejectsNewWork(t *testing.T) {
	b, _ := newTestBackend(t)
	b.Close()
	out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'x')")
	if !errors.Is(out.Err, ErrDisabled) && !errors.Is(out.Err, ErrClosed) {
		t.Fatalf("write after close: %v", out.Err)
	}
	b.Close() // idempotent
}

func TestAbortTx(t *testing.T) {
	b, _ := newTestBackend(t)
	const tx = uint64(11)
	<-b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (4, 'x')")
	b.AbortTx(tx)
	if b.HasTx(tx) {
		t.Fatal("tx should be gone")
	}
	res, err := b.Read(0, nil, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("abort did not roll back: %v %v", res, err)
	}
}

func TestDirectExecBypassesDisabled(t *testing.T) {
	b, _ := newTestBackend(t)
	b.Disable()
	if _, err := b.DirectExec(nil, "INSERT INTO t (id, v) VALUES (8, 'r')"); err != nil {
		t.Fatalf("direct exec: %v", err)
	}
	b.Enable()
	res, err := b.Read(0, nil, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("direct exec row missing: %v %v", res, err)
	}
}

func mustStmt(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestParkedWriteEscapesStuckTransaction: a transaction that never ends
// holds a table lock; an auto-commit write to that table parks on its
// ungranted ticket, then the escape timer hands it to a worker where the
// engine's own lock timeout fails it — the backend must not wedge, and the
// failure must be the semantic lock-timeout, not a hang.
func TestParkedWriteEscapesStuckTransaction(t *testing.T) {
	b, _ := newTestBackend(t) // engine default lock timeout: 2s
	const tx = uint64(77)
	out := <-b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'x')")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	done := b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "UPDATE t SET v = 'y' WHERE id = 1")
	select {
	case o := <-done:
		if o.Err == nil {
			t.Fatal("write completed while the transaction held the lock")
		}
		if !errors.Is(o.Err, sqlengine.ErrLockTimeout) {
			t.Fatalf("want ErrLockTimeout, got %v", o.Err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("parked write never escaped a stuck transaction")
	}
	b.AbortTx(tx)
}

// countingDriver wraps a driver and counts Open calls.
type countingDriver struct {
	d     Driver
	opens atomic.Int64
}

func (c *countingDriver) Open() (Conn, error) {
	c.opens.Add(1)
	return c.d.Open()
}

// TestPreboundConnectionFreeList: sequential auto-commit writes must reuse
// the dedicated pre-bound connection through the reset free-list instead of
// opening a fresh session per write.
func TestPreboundConnectionFreeList(t *testing.T) {
	e := sqlengine.New("freelist")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	cd := &countingDriver{d: &EngineDriver{Engine: e}}
	b := New(Config{Name: "freelist", Driver: cd})
	b.Enable()
	defer b.Close()

	const writes = 50
	for i := 0; i < writes; i++ {
		out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil,
			fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'x')", i))
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	res, err := b.Read(0, nil, "SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != writes {
		t.Fatalf("count: %v %v", res, err)
	}
	// Sequential writes return their connection before the next enqueue, so
	// the free-list satisfies nearly every prebind. Leave generous slack for
	// scheduling overlap; without reuse this would be >= 50.
	if n := cd.opens.Load(); n > writes/2 {
		t.Fatalf("driver opened %d connections for %d sequential writes; free-list not reusing", n, writes)
	}
}

// TestPreboundResetReleasesTicket: a reused connection must not carry its
// previous task's lock ticket — a conflicting transactional write afterwards
// must still be grantable, and the reused session must hold no stale state.
func TestPreboundResetReleasesTicket(t *testing.T) {
	b, _ := newTestBackend(t)
	for i := 0; i < 3; i++ {
		out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil,
			fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'a')", i))
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	// A transaction writing the same table completes only if the pooled
	// connections dropped their tickets on reuse.
	done := make(chan error, 1)
	go func() {
		if out := <-b.EnqueueWrite(7, sqlparser.ClassWrite, nil, "UPDATE t SET v = 'b' WHERE id = 1"); out.Err != nil {
			done <- out.Err
			return
		}
		out := <-b.EnqueueWrite(7, sqlparser.ClassCommit, nil, "COMMIT")
		done <- out.Err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("transactional write blocked behind a stale pooled ticket")
	}
}

// TestLaneOrdersInsertSelectBehindParkedWrite: the engine ticket of an
// auto-commit write covers only its write target, so the read side of
// INSERT ... SELECT is ordered by the lane dependency alone. W1 updates b
// and parks on b's ticket behind transaction 7; W2 writes a (free) and
// reads b, so without the lane it would run at once and copy b before W1.
func TestLaneOrdersInsertSelectBehindParkedWrite(t *testing.T) {
	e := sqlengine.New("db1")
	s := e.NewSession()
	for _, q := range []string{
		"CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)",
		"CREATE TABLE b (id INTEGER PRIMARY KEY, v INTEGER)",
		"INSERT INTO b (id, v) VALUES (1, 0)",
	} {
		if _, err := s.ExecSQL(q); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	b := New(Config{Name: "db1", Driver: &EngineDriver{Engine: e}})
	b.Enable()
	t.Cleanup(b.Close)

	const tx = uint64(7)
	if out := <-b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "UPDATE b SET v = 1 WHERE id = 1"); out.Err != nil {
		t.Fatal(out.Err)
	}
	w1 := b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "UPDATE b SET v = v + 10 WHERE id = 1")
	w2 := b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO a (id, v) SELECT id, v FROM b")
	if out := <-b.EnqueueWrite(tx, sqlparser.ClassCommit, nil, "COMMIT"); out.Err != nil {
		t.Fatal(out.Err)
	}
	for _, w := range []<-chan WriteOutcome{w1, w2} {
		if out := <-w; out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	res, err := b.Read(0, nil, "SELECT v FROM a WHERE id = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read back: %v %v", res, err)
	}
	if got, _ := res.Rows[0][0].AsInt(); got != 11 {
		t.Fatalf("a.v = %d, want 11: INSERT ... SELECT overtook the parked update of b it reads", got)
	}
}

// plainDriver hands out connections that are only Conn: the plain kind of
// driver (a nested controller, or any database reached through its ordinary
// driver), which neither reserves tickets nor resets nor can be killed.
type plainDriver struct{ d Driver }

type plainConn struct{ Conn }

func (p plainDriver) Open() (Conn, error) {
	c, err := p.d.Open()
	if err != nil {
		return nil, err
	}
	return plainConn{c}, nil
}

// TestPlainDriverWritesAndTeardown runs the backend over a plain driver:
// auto-commit writes lock at execution time on pooled connections, a
// transaction applies on its own connection, and a disable in the middle of
// a transaction still delivers one terminal outcome per write and rolls the
// transaction back without a Kill.
func TestPlainDriverWritesAndTeardown(t *testing.T) {
	if _, ok := Conn(plainConn{}).(Reserving); ok {
		t.Fatal("plainConn must not be Reserving")
	}
	e := sqlengine.New("plain")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	const maxConns = 4
	pd := &countingDriver{d: plainDriver{&EngineDriver{Engine: e}}}
	b := New(Config{Name: "plain", Driver: pd, MaxConns: maxConns})
	b.Enable()
	t.Cleanup(b.Close)

	const writes = 50
	for i := 0; i < writes; i++ {
		if out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'a')", i)); out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	// One probe learns the kind; sequential writes then share one pooled
	// connection.
	if n := pd.opens.Load(); n > 2 {
		t.Fatalf("%d opens for %d sequential writes: a connection per write", n, writes)
	}

	if out := <-b.EnqueueWrite(1, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (100, 'tx')"); out.Err != nil {
		t.Fatal(out.Err)
	}
	if out := <-b.EnqueueWrite(1, sqlparser.ClassCommit, nil, "COMMIT"); out.Err != nil {
		t.Fatal(out.Err)
	}

	// Transaction 2 holds t's engine lock when the disable comes; its later
	// writes and a burst of auto-commit writes are queued behind it.
	if out := <-b.EnqueueWrite(2, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1000, 'tx')"); out.Err != nil {
		t.Fatal(out.Err)
	}
	var inflight []<-chan WriteOutcome
	var auto []bool
	for i := 1; i <= 3; i++ {
		inflight = append(inflight, b.EnqueueWrite(2, sqlparser.ClassWrite, nil, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'tx')", 1000+i)))
		auto = append(auto, false)
	}
	for i := 0; i < 8; i++ {
		inflight = append(inflight, b.EnqueueWrite(0, sqlparser.ClassWrite, nil, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'a')", 2000+i)))
		auto = append(auto, true)
	}
	b.Disable()
	applied := 0
	for i, w := range inflight {
		select {
		case out := <-w:
			if out.Err != nil && !errors.Is(out.Err, ErrDisabled) {
				t.Fatalf("write %d: %v", i, out.Err)
			}
			if auto[i] && out.Err == nil {
				applied++
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("write %d never delivered an outcome after the disable", i)
		}
	}
	if out := <-b.EnqueueWrite(2, sqlparser.ClassCommit, nil, "COMMIT"); !errors.Is(out.Err, ErrDisabled) {
		t.Fatalf("commit after the disable: %v, want ErrDisabled", out.Err)
	}
	drained := make(chan struct{})
	go func() { b.DrainWrites(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("the disabled transaction never ended")
	}
	b.Enable()

	res, err := b.Read(0, nil, "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].I, int64(writes+1+applied); got != want {
		t.Fatalf("%d rows, want %d (%d auto-commit writes, the committed transaction, %d applied in flight)", got, want, writes, applied)
	}
	res, err = b.Read(0, nil, "SELECT COUNT(*) FROM t WHERE id >= 1000 AND id < 2000")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("the disabled transaction was not rolled back: %v %v", res, err)
	}
	// The pool, the one probe, and one dedicated connection per transaction.
	if n := pd.opens.Load(); n > maxConns+1+2 {
		t.Fatalf("%d opens, want at most %d", n, maxConns+1+2)
	}
	t.Logf("%d opens, %d of 8 in-flight auto-commit writes applied", pd.opens.Load(), applied)
}
