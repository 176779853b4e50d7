package backend

// Regression tests for the pending-request gauge feeding the LeastPending
// balancer: every enqueue path bumps it and every outcome path — including
// the disable teardown's synthetic rollbacks and the transaction lane's
// residual sweep — decrements it, so a crashed backend's gauge can neither
// wedge high (starving it of reads forever after re-enable) nor go negative
// (hogging all reads).

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

// TestPendingGaugeResidualLaneSweep forces the invariant violation the
// txWorker sweep guards against: a task stranded behind a transaction's
// demarcation. The sweep must deliver a terminal outcome and rebalance the
// gauge instead of leaking both.
func TestPendingGaugeResidualLaneSweep(t *testing.T) {
	b, _ := newTestBackend(t)
	// A slow first write keeps the lane's worker busy while the two tasks
	// below are queued behind it.
	b.SetFaultPlan(NewFaultPlan(Slow(OpWrite, 150*time.Millisecond)))
	const tx = uint64(9)
	first := b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'a')")
	b.mu.Lock()
	tc := b.txs[tx]
	b.mu.Unlock()
	if tc == nil {
		t.Fatal("transaction lane not created")
	}
	// Bypass the enqueue-side ending guard to simulate the broken ordering:
	// a demarcation with a write stranded behind it.
	d1 := make(chan WriteOutcome, 1)
	d2 := make(chan WriteOutcome, 1)
	b.pending.Add(1)
	tc.queue <- &writeTask{txID: tx, class: sqlparser.ClassRollback, sql: "ROLLBACK", done: d1}
	b.pending.Add(1)
	tc.wrote.Add(1)
	tc.queue <- &writeTask{txID: tx, class: sqlparser.ClassWrite, sql: "INSERT INTO t (id, v) VALUES (2, 'b')", done: d2}

	if out := <-first; out.Err != nil {
		t.Fatalf("first write: %v", out.Err)
	}
	<-d1
	out := <-d2
	if !errors.Is(out.Err, ErrDisabled) {
		t.Fatalf("stranded task outcome = %v, want ErrDisabled", out.Err)
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("pending gauge = %d after sweep, want 0", got)
	}
	b.SetFaultPlan(nil)
	// The sweep released the stranded task's wrote accounting too.
	b.DrainWrites()
}

// TestPendingGaugeBalancedAcrossCrashCycles hammers a backend with
// transactional and auto-commit writes through repeated crash/heal/re-enable
// cycles. Every enqueue must deliver exactly one outcome, the gauge must
// never go negative, and it must return to zero once everything drains.
func TestPendingGaugeBalancedAcrossCrashCycles(t *testing.T) {
	b, _ := newTestBackend(t)

	var negative atomic.Bool
	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if b.Pending() < 0 {
				negative.Store(true)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const (
		nWriters = 4
		nOps     = 50
	)
	outcomes := make(chan (<-chan WriteOutcome), nWriters*nOps*3)
	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < nOps; i++ {
				tx := uint64(w*1000 + i + 1)
				outcomes <- b.EnqueueWrite(tx, sqlparser.ClassWrite, nil,
					fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'x')", int(tx)*10))
				outcomes <- b.EnqueueWrite(tx, sqlparser.ClassCommit, nil, "COMMIT")
				outcomes <- b.EnqueueWrite(0, sqlparser.ClassWrite, nil,
					fmt.Sprintf("UPDATE t SET v = 'y' WHERE id = %d", w))
			}
		}(w)
	}

	for cycle := 0; cycle < 5; cycle++ {
		time.Sleep(2 * time.Millisecond)
		plan := NewFaultPlan(&Rule{Kind: OpWrite, Crash: true})
		b.SetFaultPlan(plan)
		b.Disable()
		time.Sleep(time.Millisecond)
		plan.Heal()
		b.SetFaultPlan(nil)
		b.Enable()
	}

	wg.Wait()
	close(outcomes)
	for ch := range outcomes {
		<-ch // exactly one terminal outcome per enqueue — zero lost acks
	}
	// Final teardown rolls back whatever transactions are still open.
	b.Disable()
	b.DrainWrites()

	deadline := time.Now().Add(5 * time.Second)
	for b.Pending() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	samplerDone.Wait()
	if got := b.Pending(); got != 0 {
		t.Fatalf("pending gauge = %d after full drain, want 0", got)
	}
	if negative.Load() {
		t.Fatal("pending gauge went negative")
	}
}

// TestSlowReadIsPendingAndHoldsItsConnection: an injected read latency is
// service time on the backend. The read is pending while it sleeps, so
// least-pending-requests-first balancing sees the slow replica, and it
// sleeps holding its pooled connection, so MaxConns bounds slow reads as it
// bounds any other.
func TestSlowReadIsPendingAndHoldsItsConnection(t *testing.T) {
	e := sqlengine.New("db")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	b := New(Config{Name: "db", Driver: &EngineDriver{Engine: e}, MaxConns: 2})
	b.Enable()
	defer b.Close()
	const reads, delay = 8, 20 * time.Millisecond
	b.SetFaultPlan(NewFaultPlan(Slow(OpRead, delay)))

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < reads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Read(0, nil, "SELECT * FROM t"); err != nil {
				t.Error(err)
			}
		}()
	}
	// No read can finish its delay before start+delay, so a read that is
	// not pending by then is sleeping outside the gauge.
	pending := false
	for !pending && time.Since(start) < delay*3/4 {
		pending = b.Pending() > 0
		time.Sleep(100 * time.Microsecond)
	}
	if !pending {
		t.Error("no read was pending while eight slow reads ran")
	}
	wg.Wait()
	// Two connections serve eight reads of 20 ms in four rounds.
	if elapsed := time.Since(start); elapsed < 3*delay {
		t.Errorf("%d slow reads on 2 connections took %v, want ≥ %v", reads, elapsed, 3*delay)
	}
	if got := b.Pending(); got != 0 {
		t.Errorf("pending after completion = %d", got)
	}
	if got := b.Ops(); got != reads {
		t.Errorf("ops = %d, want %d", got, reads)
	}
}
