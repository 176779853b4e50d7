package controller

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

// gateDriver wraps the engine driver and blocks Exec calls whose SQL
// matches a prefix until the gate channel is closed, standing in for an
// arbitrarily slow replica. Reservation calls pass straight through: the
// gate delays execution, never ticket issuance — exactly the window in
// which a replica could reorder writes before this PR.
type gateDriver struct {
	inner backend.Driver
	match string
	gate  chan struct{}
}

func (d *gateDriver) Open() (backend.Conn, error) {
	c, err := d.inner.Open()
	if err != nil {
		return nil, err
	}
	return &gateConn{inner: c, d: d}, nil
}

type gateConn struct {
	inner backend.Conn
	d     *gateDriver
}

func (c *gateConn) Exec(st sqlparser.Statement, sql string) (*backend.Result, error) {
	if strings.HasPrefix(sql, c.d.match) {
		<-c.d.gate
	}
	return c.inner.Exec(st, sql)
}

func (c *gateConn) Begin() error    { return c.inner.Begin() }
func (c *gateConn) Commit() error   { return c.inner.Commit() }
func (c *gateConn) Rollback() error { return c.inner.Rollback() }
func (c *gateConn) Close() error    { return c.inner.Close() }

func (c *gateConn) ReserveWriteLock(table string) {
	c.inner.(backend.LockReserver).ReserveWriteLock(table)
}

func (c *gateConn) ReserveWriteLockNotify(table string, n backend.TicketNotifier) {
	c.inner.(backend.TicketReserver).ReserveWriteLockNotify(table, n)
}

// TestAutoCommitTransactionalPairAppliesInSequencerOrder is the
// deterministic acceptance test for reservation-ordered writes: a
// conflicting auto-commit/transactional pair must apply in sequencer order
// on every replica even when one replica is artificially slow.
//
// The sequencer admits the auto-commit write W1 (v = v + 1) before the
// transactional write W2 (v = v * 10). The slow replica's gate stalls W1's
// execution until after W2's transaction has committed cluster-wide (the
// early-response FIRST policy lets the client race ahead on the fast
// replica). Before this PR, W1 took its engine lock at execution time, so
// on the slow replica W2's enqueue-time reservation overtook it: final
// value 1 (0*10 + 1) there versus 10 ((0+1)*10) on the fast replica. With
// enqueue-time tickets for both, every replica must converge to 10.
func TestAutoCommitTransactionalPairAppliesInSequencerOrder(t *testing.T) {
	v := NewVirtualDatabase(VDBConfig{Name: "pair", ParallelTx: true, EarlyResponse: ResponseFirst})
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	// A test failure before the gate opens must not hang backend Close.
	t.Cleanup(openGate)
	var engines []*sqlengine.Engine
	for i := 0; i < 2; i++ {
		e := sqlengine.New(fmt.Sprintf("db%d", i), sqlengine.WithLockTimeout(30*time.Second))
		s := e.NewSession()
		for _, q := range []string{
			"CREATE TABLE t0 (id INTEGER PRIMARY KEY, v INTEGER)",
			"INSERT INTO t0 (id, v) VALUES (1, 0)",
		} {
			if _, err := s.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
		engines = append(engines, e)
		var drv backend.Driver = &backend.EngineDriver{Engine: e}
		if i == 1 {
			drv = &gateDriver{inner: drv, match: "UPDATE t0 SET v = v + 1", gate: gate}
		}
		b := backend.New(backend.Config{Name: fmt.Sprintf("db%d", i), Driver: drv})
		t.Cleanup(b.Close)
		if err := v.AddBackend(b); err != nil {
			t.Fatal(err)
		}
	}

	// W1: sequenced first. ResponseFirst returns once the fast replica
	// applied it; on the slow replica it is still stuck in the gate.
	sA := openSession(t, v)
	exec(t, sA, "UPDATE t0 SET v = v + 1 WHERE id = 1")

	// W2: a conflicting transactional write sequenced after W1, committed
	// while the slow replica still holds W1 in the gate.
	sB := openSession(t, v)
	exec(t, sB, "BEGIN")
	exec(t, sB, "UPDATE t0 SET v = v * 10 WHERE id = 1")
	exec(t, sB, "COMMIT")

	// ResponseFirst may have acknowledged the commit from either replica;
	// the ungated one converges to 10 on its own.
	waitForV := func(e *sqlengine.Engine, who string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if countOn(t, e, "SELECT v FROM t0 WHERE id = 1") == 10 {
				return
			}
			time.Sleep(time.Millisecond)
		}
		got := countOn(t, e, "SELECT v FROM t0 WHERE id = 1")
		if got == 1 {
			t.Fatalf("%s replica settled on v = 1: W2 applied before W1 — a conflicting auto-commit/transactional pair was reordered", who)
		}
		t.Fatalf("%s replica never converged: v = %d, want 10", who, got)
	}
	waitForV(engines[0], "fast")

	// Release the slow replica: it must apply W1 then W2 — the sequencer
	// order — not the order its own lock queue would have improvised.
	openGate()
	waitForV(engines[1], "slow")
}
