package backend

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

var errBoom = errors.New("boom")

// TestFaultPlanRules drives the rule matcher directly: positional firing,
// firing budgets, table matching, latency-only rules, crash rules, and
// healing.
func TestFaultPlanRules(t *testing.T) {
	// FailNth: exactly the nth matching op fails, once.
	p := NewFaultPlan(FailNth(OpWrite, 2, errBoom))
	for i, want := range []error{nil, errBoom, nil} {
		if _, err := p.check(Op{Kind: OpWrite}); !errors.Is(err, want) {
			t.Fatalf("write %d: err = %v, want %v", i+1, err, want)
		}
	}
	// Kind filter: reads never match a write rule.
	p = NewFaultPlan(FailNth(OpWrite, 1, errBoom))
	if _, err := p.check(Op{Kind: OpRead}); err != nil {
		t.Fatalf("read matched a write rule: %v", err)
	}
	// Table filter.
	p = NewFaultPlan(FailTable("u", errBoom))
	if _, err := p.check(Op{Kind: OpWrite, Table: "t"}); err != nil {
		t.Fatalf("table t matched rule for u: %v", err)
	}
	if _, err := p.check(Op{Kind: OpWrite, Table: "u"}); !errors.Is(err, errBoom) {
		t.Fatalf("table u: err = %v, want boom", err)
	}
	// FailOnce with nil error injects ErrInjected, then heals by budget.
	p = NewFaultPlan(FailOnce(nil))
	if _, err := p.check(Op{Kind: OpCommit}); !errors.Is(err, ErrInjected) {
		t.Fatalf("first op: err = %v, want ErrInjected", err)
	}
	if _, err := p.check(Op{Kind: OpRead}); err != nil {
		t.Fatalf("second op after one-shot: %v", err)
	}
	// Latency-only rule: delay without error.
	p = NewFaultPlan(Slow(OpWrite, 42*time.Millisecond))
	d, err := p.check(Op{Kind: OpWrite})
	if err != nil || d != 42*time.Millisecond {
		t.Fatalf("slow rule: d=%v err=%v", d, err)
	}
	// Crash: the firing flips the plan down for every kind until Heal.
	// CrashPending holds from installation until the crash fires.
	p = NewFaultPlan(CrashOnCommit(2, errBoom))
	if !p.CrashPending() {
		t.Fatal("crash not pending on a fresh plan")
	}
	if _, err := p.check(Op{Kind: OpCommit}); err != nil {
		t.Fatalf("first commit of CrashOnCommit(2): %v", err)
	}
	if !p.CrashPending() {
		t.Fatal("crash not pending before its commit")
	}
	if _, err := p.check(Op{Kind: OpCommit}); !errors.Is(err, errBoom) {
		t.Fatalf("crash firing: %v", err)
	}
	if !p.Down() || p.CrashPending() {
		t.Fatalf("after the crash: Down %v, CrashPending %v; want true, false", p.Down(), p.CrashPending())
	}
	for _, k := range []OpKind{OpRead, OpWrite, OpProbe, OpDirect} {
		if _, err := p.check(Op{Kind: k}); !errors.Is(err, errBoom) {
			t.Fatalf("kind %d while down: %v", k, err)
		}
	}
	p.Heal()
	if p.Down() || p.CrashPending() {
		t.Fatalf("after Heal: Down %v, CrashPending %v; want false, false", p.Down(), p.CrashPending())
	}
	if NewFaultPlan(Slow(OpWrite, time.Millisecond)).CrashPending() {
		t.Fatal("a plan without a crash rule reports a pending crash")
	}
	unfired := NewFaultPlan(CrashOnCommit(1, errBoom))
	unfired.Heal()
	if unfired.CrashPending() {
		t.Fatal("Heal left an unfired crash pending")
	}
	if _, err := p.check(Op{Kind: OpCommit}); err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	// Heal expires unlimited rules too.
	p = NewFaultPlan(&Rule{Kind: OpWrite, Err: errBoom})
	if _, err := p.check(Op{Kind: OpWrite}); !errors.Is(err, errBoom) {
		t.Fatalf("unlimited rule: %v", err)
	}
	p.Heal()
	if _, err := p.check(Op{Kind: OpWrite}); err != nil {
		t.Fatalf("unlimited rule survived Heal: %v", err)
	}
}

// TestPingProbeFault: Ping succeeds on a healthy backend, consults the
// fault plan as OpProbe, and recovers when the rule's budget runs out.
func TestPingProbeFault(t *testing.T) {
	b, _ := newTestBackend(t)
	if err := b.Ping(); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}
	b.SetFaultPlan(NewFaultPlan(FailNth(OpProbe, 1, errBoom)))
	if err := b.Ping(); !errors.Is(err, errBoom) {
		t.Fatalf("faulted ping: %v", err)
	}
	if err := b.Ping(); err != nil {
		t.Fatalf("ping after one-shot fault: %v", err)
	}
}

// TestDisableKillsInFlightTransaction is the crash-consistent teardown
// proof: a transaction holds an engine lock, an auto-commit write is
// blocked behind it, and Disable must (a) deliver a terminal outcome to the
// blocked write, and (b) roll the transaction back so no engine lock or
// ticket is stranded.
func TestDisableKillsInFlightTransaction(t *testing.T) {
	b, e := newTestBackend(t)
	const tx = uint64(7)
	out := <-b.EnqueueWrite(tx, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'a')")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	// Blocked behind tx's exclusive lock on t.
	blocked := b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "UPDATE t SET v = 'b' WHERE id = 1")
	time.Sleep(10 * time.Millisecond) // let it reach the engine lock wait

	if !b.Disable() {
		t.Fatal("Disable returned false on an enabled backend")
	}
	select {
	case o := <-blocked:
		if o.Err == nil {
			t.Fatal("blocked write succeeded across a disable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked write never got a terminal outcome: lost ack")
	}
	b.DrainWrites()

	deadline := time.Now().Add(5 * time.Second)
	for e.HeldLocks() != 0 || e.PendingTickets() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stranded engine state after disable: locks=%d tickets=%d",
				e.HeldLocks(), e.PendingTickets())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDisableIdempotent: only the first Disable reports the transition, so
// the controller's disabled counter counts each outage once.
func TestDisableIdempotent(t *testing.T) {
	b, _ := newTestBackend(t)
	if !b.Disable() {
		t.Fatal("first Disable: want true")
	}
	if b.Disable() {
		t.Fatal("second Disable: want false")
	}
	// Disable from recovering tears the attempt down but reports false:
	// the backend was never re-enabled, so there is no new outage to count.
	b.SetRecovering()
	if b.Disable() {
		t.Fatal("Disable from recovering: want false (no enabled-to-disabled transition)")
	}
	if b.State() != StateDisabled {
		t.Fatal("Disable from recovering should still land in disabled")
	}
}

// TestDrainWritesFlushesOutcomes: after DrainWrites returns, every
// previously enqueued write has a buffered terminal outcome.
func TestDrainWritesFlushesOutcomes(t *testing.T) {
	b, _ := newTestBackend(t)
	var outs []<-chan WriteOutcome
	for i := 0; i < 40; i++ {
		outs = append(outs, b.EnqueueWrite(0, sqlparser.ClassWrite, nil,
			fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'x')", 100+i)))
	}
	b.DrainWrites()
	for i, o := range outs {
		select {
		case out := <-o:
			if out.Err != nil {
				t.Fatalf("write %d failed: %v", i, out.Err)
			}
		default:
			t.Fatalf("write %d has no outcome after DrainWrites", i)
		}
	}
}

// TestSlowFaultDelaysWrite: a latency rule slows the write path without
// failing it.
func TestSlowFaultDelaysWrite(t *testing.T) {
	b, _ := newTestBackend(t)
	b.SetFaultPlan(NewFaultPlan(Slow(OpWrite, 30*time.Millisecond)))
	start := time.Now()
	out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, nil, "INSERT INTO t (id, v) VALUES (1, 'a')")
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("write completed in %v, latency rule not applied", d)
	}
}

// TestSessionKillUnblocksLockWait: the engine seam the teardown relies on —
// killing a session interrupts its lock wait with a non-semantic error.
func TestSessionKillUnblocksLockWait(t *testing.T) {
	e := sqlengine.New("kill")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecSQL("INSERT INTO t (id, v) VALUES (1, 'a')"); err != nil {
		t.Fatal(err)
	}
	holder := e.NewSession()
	defer holder.Close()
	if _, err := holder.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.ExecSQL("UPDATE t SET v = 'h' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	waiter := e.NewSession()
	defer waiter.Close()
	done := make(chan error, 1)
	go func() {
		_, err := waiter.ExecSQL("UPDATE t SET v = 'w' WHERE id = 1")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	waiter.Kill()
	select {
	case err := <-done:
		if !errors.Is(err, sqlengine.ErrKilled) {
			t.Fatalf("killed waiter returned %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not unblock the lock wait")
	}
	if !waiter.Killed() {
		t.Fatal("Killed() should report true")
	}
	s.Close()
}
