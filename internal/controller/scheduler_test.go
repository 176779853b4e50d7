package controller

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
)

// outcomeSpec describes one backend's simulated outcome.
type outcomeSpec struct {
	res   *backend.Result
	err   error
	after time.Duration
}

// outcomesFrom builds the shared outcome channel of one cluster write:
// immediate outcomes are pre-buffered in order, delayed ones arrive later.
func outcomesFrom(specs ...outcomeSpec) backend.Outcomes {
	outs := backend.NewOutcomes(len(specs))
	for _, sp := range specs {
		if sp.after == 0 {
			outs.C <- backend.WriteOutcome{Res: sp.res, Err: sp.err}
		} else {
			go func(sp outcomeSpec) {
				time.Sleep(sp.after)
				outs.C <- backend.WriteOutcome{Res: sp.res, Err: sp.err}
			}(sp)
		}
	}
	return outs
}

func TestWaitOutcomesAllWaitsForEveryBackend(t *testing.T) {
	s := NewScheduler(1, ResponseAll, true)
	slow := 30 * time.Millisecond
	start := time.Now()
	res, err := s.WaitOutcomes(ResponseAll, outcomesFrom(
		outcomeSpec{res: &backend.Result{RowsAffected: 1}},
		outcomeSpec{res: &backend.Result{RowsAffected: 1}, after: slow},
	))
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if time.Since(start) < slow {
		t.Error("ResponseAll returned before the slow backend")
	}
}

func TestWaitOutcomesFirstReturnsEarly(t *testing.T) {
	s := NewScheduler(1, ResponseFirst, true)
	start := time.Now()
	res, err := s.WaitOutcomes(ResponseFirst, outcomesFrom(
		outcomeSpec{res: &backend.Result{RowsAffected: 1}},
		outcomeSpec{res: &backend.Result{RowsAffected: 1}, after: 200 * time.Millisecond},
	))
	if err != nil || res == nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("ResponseFirst waited for the slow backend")
	}
}

func TestWaitOutcomesMajority(t *testing.T) {
	s := NewScheduler(1, ResponseMajority, true)
	start := time.Now()
	_, err := s.WaitOutcomes(ResponseMajority, outcomesFrom(
		outcomeSpec{res: &backend.Result{}},
		outcomeSpec{res: &backend.Result{}, after: 10 * time.Millisecond},
		outcomeSpec{res: &backend.Result{}, after: 300 * time.Millisecond},
	))
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 150*time.Millisecond {
		t.Error("majority waited for the slowest backend")
	}
}

func TestWaitOutcomesPartialFailureSucceeds(t *testing.T) {
	// No 2PC (§2.4.1): a failed backend gets disabled, the operation
	// stands on the survivors.
	s := NewScheduler(1, ResponseAll, true)
	res, err := s.WaitOutcomes(ResponseAll, outcomesFrom(
		outcomeSpec{err: errors.New("disk died")},
		outcomeSpec{res: &backend.Result{RowsAffected: 1}},
	))
	if err != nil || res == nil {
		t.Fatalf("partial failure: res=%v err=%v", res, err)
	}
}

func TestWaitOutcomesTotalFailureFails(t *testing.T) {
	s := NewScheduler(1, ResponseAll, true)
	boom := errors.New("boom")
	_, err := s.WaitOutcomes(ResponseAll, outcomesFrom(
		outcomeSpec{err: boom},
		outcomeSpec{err: boom},
	))
	if !errors.Is(err, boom) {
		t.Fatalf("total failure: %v", err)
	}
	if _, err := s.WaitOutcomes(ResponseAll, backend.Outcomes{}); !errors.Is(err, ErrNoWriteTarget) {
		t.Fatalf("empty targets: %v", err)
	}
}

func TestWaitOutcomesFirstSkipsEarlyError(t *testing.T) {
	// With ResponseFirst, an early failure must not mask a later success.
	s := NewScheduler(1, ResponseFirst, true)
	res, err := s.WaitOutcomes(ResponseFirst, outcomesFrom(
		outcomeSpec{err: errors.New("bad disk")},
		outcomeSpec{res: &backend.Result{RowsAffected: 1}, after: 10 * time.Millisecond},
	))
	if err != nil || res == nil {
		t.Fatalf("first-with-error: res=%v err=%v", res, err)
	}
}

func TestTxIDsUniqueAcrossControllers(t *testing.T) {
	s1 := NewScheduler(1, ResponseAll, true)
	s2 := NewScheduler(2, ResponseAll, true)
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range []*Scheduler{s1, s2} {
		wg.Add(1)
		go func(s *Scheduler) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := s.NextTxID()
				mu.Lock()
				if id == 0 || seen[id] {
					t.Errorf("duplicate or zero txid %d", id)
					mu.Unlock()
					return
				}
				seen[id] = true
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
}

func TestPolicyStrings(t *testing.T) {
	if ResponseAll.String() != "all" || ResponseFirst.String() != "first" || ResponseMajority.String() != "majority" {
		t.Error("policy names")
	}
}

// TestClassLocksStayBoundedUnderNameChurn: a conflict class's lock lives in
// the scheduler only while a write holds or waits for it, so creating,
// writing and dropping 5 000 distinct tables through a two-replica virtual
// database — temporary ones inside a transaction, as TPC-W's best-seller
// tables, and ordinary ones in auto-commit — leaves the class table at its
// starting size, keeps only a few idle class locks for reuse, and leaves
// both engines holding no lock and no ticket.
func TestClassLocksStayBoundedUnderNameChurn(t *testing.T) {
	v, engines := mkVDB(t, 2, VDBConfig{ParallelTx: true}, "CREATE TABLE item (id INTEGER PRIMARY KEY, v INTEGER)")
	s := openSession(t, v)
	sc := v.sched
	sc.classMu.Lock()
	start := len(sc.classes)
	sc.classMu.Unlock()
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("besttmp_%d", i)
		stmts := []string{
			"CREATE TABLE " + name + " (id INTEGER PRIMARY KEY, v INTEGER)",
			"INSERT INTO " + name + " (id, v) VALUES (1, 1)",
			"DROP TABLE " + name,
		}
		if i%2 == 0 {
			stmts = []string{
				"BEGIN",
				"CREATE TEMPORARY TABLE " + name + " AS SELECT id, v FROM item",
				"INSERT INTO " + name + " (id, v) VALUES (1, 1)",
				"DROP TABLE " + name,
				"COMMIT",
			}
		}
		for _, q := range stmts {
			exec(t, s, q)
		}
	}
	sc.classMu.Lock()
	classes, idle := len(sc.classes), len(sc.idle)
	sc.classMu.Unlock()
	if classes != start {
		t.Errorf("class table holds %d entries after the churn, %d before", classes, start)
	}
	if idle > 1 {
		t.Errorf("%d idle class locks kept for reuse; one session's single-table writes need 1", idle)
	}
	for _, e := range engines {
		if e.HeldLocks() != 0 || e.PendingTickets() != 0 {
			t.Errorf("%s: %d locks held, %d tickets queued after the churn", e.Name(), e.HeldLocks(), e.PendingTickets())
		}
	}
}
