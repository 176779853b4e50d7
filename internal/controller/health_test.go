package controller

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/recovery"
)

var errProbe = errors.New("probe boom")

// waitStatus polls the monitor until the backend reaches the wanted status.
func waitStatus(t *testing.T, v *VirtualDatabase, name string, want BackendStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := v.BackendHealth(name); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend %s health = %s, want %s", name, v.BackendHealth(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSuspectThresholdStateMachine drives the monitor's failure/success
// accounting directly: below the threshold a backend is suspect but stays
// enabled and serving; a success resets the count; reaching the threshold
// disables it.
func TestSuspectThresholdStateMachine(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true, Health: HealthConfig{SuspectThreshold: 3}}, seedSchema...)
	t.Cleanup(v.Close)
	b, _ := v.Backend("db0")

	v.health.failure("db0")
	v.health.failure("db0")
	if got := v.BackendHealth("db0"); got != StatusSuspect {
		t.Fatalf("after 2 failures: %s, want suspect", got)
	}
	if !b.Enabled() {
		t.Fatal("suspect backend must stay enabled")
	}
	v.health.success("db0")
	if got := v.BackendHealth("db0"); got != StatusHealthy {
		t.Fatalf("after success: %s, want healthy", got)
	}
	// The reset means three more failures are needed, not one.
	v.health.failure("db0")
	v.health.failure("db0")
	if !b.Enabled() {
		t.Fatal("disabled before the threshold")
	}
	v.health.failure("db0")
	if b.Enabled() {
		t.Fatal("still enabled at the threshold")
	}
	if got := v.BackendHealth("db0"); got != StatusDown {
		t.Fatalf("after threshold: %s, want down", got)
	}
	if got := v.StatsSnapshot().BackendsDisabled; got != 1 {
		t.Fatalf("disabled count = %d, want 1", got)
	}
}

// TestProbeDisablesUnresponsiveBackend: the periodic ping trips the suspect
// threshold on a backend that stops answering, with no client traffic at
// all.
func TestProbeDisablesUnresponsiveBackend(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true, Health: HealthConfig{
		SuspectThreshold: 2,
		ProbeInterval:    2 * time.Millisecond,
	}}, seedSchema...)
	t.Cleanup(v.Close)
	b, _ := v.Backend("db1")
	b.SetFaultPlan(backend.NewFaultPlan(&backend.Rule{Kind: backend.OpProbe, Err: errProbe}))
	waitStatus(t, v, "db1", StatusDown)
	if b.Enabled() {
		t.Fatal("unresponsive backend still enabled")
	}
	if st := v.BackendHealth("db0"); st != StatusHealthy {
		t.Fatalf("healthy backend got probed into %s", st)
	}
}

// TestWriteFailureBypassesSuspectThreshold: a failed write disables the
// backend immediately regardless of the threshold — there is no 2PC, so a
// backend that failed a write the others applied has already diverged
// (§2.4.1).
func TestWriteFailureBypassesSuspectThreshold(t *testing.T) {
	v, engines := mkVDB(t, 2, VDBConfig{ParallelTx: true, Health: HealthConfig{SuspectThreshold: 5}}, seedSchema...)
	t.Cleanup(v.Close)
	b, _ := v.Backend("db1")
	b.InjectFailure(errProbe)
	s := openSession(t, v)
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)") // partial success on db0
	// The disable callback runs on its own goroutine; what "at once" means
	// is no suspect grace period, not synchronously-with-the-ack.
	deadline := time.Now().Add(10 * time.Second)
	for b.Enabled() {
		if time.Now().After(deadline) {
			t.Fatal("backend that failed a write must be disabled at once, not suspected")
		}
		time.Sleep(time.Millisecond)
	}
	if got := countOn(t, engines[0], "SELECT COUNT(*) FROM item"); got != 4 {
		t.Fatalf("survivor rows = %d, want 4", got)
	}
}

// TestAutoReintegration is the supervisor's happy path: a backend crashes
// on a write, the monitor disables it, and once the fault heals the
// supervisor restores it from the cached backup and replays it back to
// byte-parity — no operator involved. Writes issued while it was down must
// be present afterwards.
func TestAutoReintegration(t *testing.T) {
	v, engines := mkVDB(t, 2, VDBConfig{
		ParallelTx:  true,
		RecoveryLog: recovery.NewMemoryLog(),
		Health: HealthConfig{
			AutoReintegrate:       true,
			ReintegrateBackoff:    2 * time.Millisecond,
			ReintegrateBackoffCap: 20 * time.Millisecond,
			ReintegrateAttempts:   -1,
		},
	}, seedSchema...)
	t.Cleanup(v.Close)
	if _, err := v.BackupBackend("db0", "genesis"); err != nil {
		t.Fatal(err)
	}
	b, _ := v.Backend("db1")
	plan := backend.NewFaultPlan(&backend.Rule{Kind: backend.OpWrite, Times: 1, Crash: true})
	b.SetFaultPlan(plan)

	s := openSession(t, v)
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (4, 'd', 40)") // crashes db1
	// The write ack (partial success) can land before the failure callback
	// finishes disabling db1, and the callback disables the backend before
	// it tells the monitor: wait for the monitor's view to leave healthy, or
	// waitStatus below can return before re-integration has even started.
	// While the plan is down every attempt fails, so db1 then stays down.
	deadline := time.Now().Add(10 * time.Second)
	for v.BackendHealth("db1") == StatusHealthy {
		if time.Now().After(deadline) {
			t.Fatal("db1 should be down after the crash")
		}
		time.Sleep(time.Millisecond)
	}
	exec(t, s, "INSERT INTO item (i_id, i_title, i_cost) VALUES (5, 'e', 50)") // while down

	plan.Heal()
	waitStatus(t, v, "db1", StatusHealthy)
	if got := countOn(t, engines[1], "SELECT COUNT(*) FROM item"); got != 5 {
		t.Fatalf("re-integrated backend rows = %d, want 5", got)
	}
}

// TestAutoReintegrationKeepsSoleSurvivorServing: with two backends, one of
// them down and no backup ever taken, automatic re-integration has exactly
// one source for its dump — the backend every client depends on. It must
// copy from it without taking it off-line: a client looping reads and writes
// through the crash, the heal and the re-integration is never told there is
// no backend, and the replicas are identical afterwards.
func TestAutoReintegrationKeepsSoleSurvivorServing(t *testing.T) {
	const rows = 2000
	seed := []string{"CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_title VARCHAR, i_cost FLOAT)"}
	for lo := 0; lo < rows; lo += 200 {
		q := "INSERT INTO item (i_id, i_title, i_cost) VALUES "
		for i := lo; i < lo+200; i++ {
			if i > lo {
				q += ", "
			}
			q += fmt.Sprintf("(%d, 't', 0)", i)
		}
		seed = append(seed, q)
	}
	v, engines := mkVDB(t, 2, VDBConfig{
		ParallelTx:  true,
		RecoveryLog: recovery.NewMemoryLog(),
		Health: HealthConfig{
			AutoReintegrate:       true,
			ReintegrateBackoff:    2 * time.Millisecond,
			ReintegrateBackoffCap: 20 * time.Millisecond,
			ReintegrateAttempts:   -1,
		},
	}, seed...)
	t.Cleanup(v.Close)
	b1, _ := v.Backend("db1")
	plan := backend.NewFaultPlan(&backend.Rule{Kind: backend.OpWrite, AfterN: 20, Times: 1, Crash: true})
	b1.SetFaultPlan(plan)

	stop := make(chan struct{})
	clientDone := make(chan struct{})
	var ops, refused atomic.Int64
	go func() {
		defer close(clientDone)
		s, err := v.NewSession("user", "pw")
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range []string{
				"SELECT COUNT(*) FROM item",
				fmt.Sprintf("UPDATE item SET i_cost = i_cost + 1 WHERE i_id = %d", i%rows),
			} {
				ops.Add(1)
				if _, err := s.Exec(q, nil); errors.Is(err, balancer.ErrNoBackend) || errors.Is(err, ErrNoWriteTarget) {
					if refused.Add(1) == 1 {
						t.Errorf("client refused while a backend was being re-integrated: %q: %v", q, err)
					}
				}
			}
		}
	}()

	// While the fault lasts every attempt fails, so once the monitor has
	// noticed the crash db1 stays down or recovering until the heal.
	deadline := time.Now().Add(10 * time.Second)
	for v.BackendHealth("db1") == StatusHealthy {
		if time.Now().After(deadline) {
			t.Fatal("db1 should be down after the crash")
		}
		time.Sleep(time.Millisecond)
	}
	plan.Heal()
	waitStatus(t, v, "db1", StatusHealthy)
	close(stop)
	<-clientDone

	if n := refused.Load(); n > 0 {
		t.Fatalf("%d of %d client operations found no backend", n, ops.Load())
	}
	if b0, _ := v.Backend("db0"); !b0.Enabled() || v.StatsSnapshot().BackendsDisabled != 1 {
		t.Fatalf("the survivor was taken off-line: enabled=%v, disables=%d", b0.Enabled(), v.StatsSnapshot().BackendsDisabled)
	}
	if want, got := sortedTableDump(t, engines[0], "item"), sortedTableDump(t, engines[1], "item"); got != want {
		t.Fatalf("re-integrated replica differs from the survivor:\n%s", firstDiff(want, got))
	}
}

// TestReintegrationAttemptsExhausted: without a recovery log every restore
// attempt fails, and after the configured budget the backend lands in the
// terminal failed state instead of retrying forever.
func TestReintegrationAttemptsExhausted(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true, Health: HealthConfig{
		AutoReintegrate:       true,
		ReintegrateBackoff:    time.Millisecond,
		ReintegrateBackoffCap: 2 * time.Millisecond,
		ReintegrateAttempts:   2,
	}}, seedSchema...)
	t.Cleanup(v.Close)
	v.DisableBackend("db1")
	waitStatus(t, v, "db1", StatusFailed)
	b, _ := v.Backend("db1")
	if b.Enabled() {
		t.Fatal("failed backend must not come back")
	}
}

// TestDisableBackendCountsOnce is the check-then-act regression test:
// concurrent disables of the same backend must increment the disabled
// counter exactly once.
func TestDisableBackendCountsOnce(t *testing.T) {
	v, _ := mkVDB(t, 2, VDBConfig{ParallelTx: true}, seedSchema...)
	t.Cleanup(v.Close)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			v.DisableBackend("db0")
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := v.StatsSnapshot().BackendsDisabled; got != 1 {
		t.Fatalf("disabled count = %d, want 1", got)
	}
}

// TestHealthStatusUnknownBackend: asking about a backend the monitor has
// never seen reports healthy (the zero value), not a phantom outage.
func TestHealthStatusUnknownBackend(t *testing.T) {
	v, _ := mkVDB(t, 1, VDBConfig{ParallelTx: true}, seedSchema...)
	t.Cleanup(v.Close)
	if got := v.BackendHealth("nope"); got != StatusHealthy {
		t.Fatalf("unknown backend health = %s, want healthy", got)
	}
}

// firstDiff returns the first line on which two table dumps differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: survivor %q, re-integrated %q", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("survivor has %d lines, re-integrated %d", len(w), len(g))
}
