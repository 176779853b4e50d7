package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// notifyFunc adapts a function to TicketNotifier.
type notifyFunc func()

func (f notifyFunc) TicketGranted() { f() }

func ticketTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New("tickets", WithLockTimeout(5*time.Second))
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecSQL("INSERT INTO t (id, v) VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	return e
}

// TestTicketGrantNotifies: a ticket queued behind a transaction's exclusive
// lock reports its grant exactly when the transaction ends, not before —
// the signal the backend's worker pool parks on.
func TestTicketGrantNotifies(t *testing.T) {
	e := ticketTestEngine(t)
	holder := e.NewSession()
	defer holder.Close()
	if _, err := holder.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.ExecSQL("UPDATE t SET v = 99 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	var granted atomic.Bool
	w := e.NewSession()
	defer w.Close()
	w.ReserveWriteLockNotify("t", notifyFunc(func() { granted.Store(true) }))
	time.Sleep(20 * time.Millisecond)
	if granted.Load() {
		t.Fatal("ticket granted while the transaction held the lock")
	}
	if _, err := holder.ExecSQL("COMMIT"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !granted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !granted.Load() {
		t.Fatal("ticket grant never notified after the lock released")
	}
	// The granted ticket is consumed by the write without further waiting.
	if _, err := w.ExecSQL("UPDATE t SET v = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
}

// TestTicketGrantNotifiesImmediatelyWhenFree: an uncontended reservation
// reports its grant synchronously.
func TestTicketGrantNotifiesImmediatelyWhenFree(t *testing.T) {
	e := ticketTestEngine(t)
	var granted atomic.Bool
	s := e.NewSession()
	defer s.Close()
	s.ReserveWriteLockNotify("t", notifyFunc(func() { granted.Store(true) }))
	if !granted.Load() {
		t.Fatal("uncontended ticket not granted synchronously")
	}
}

// TestDroppedTicketNotifies: closing a session with an ungranted queued
// ticket still fires the notification, so a parked owner is never
// stranded.
func TestDroppedTicketNotifies(t *testing.T) {
	e := ticketTestEngine(t)
	holder := e.NewSession()
	defer holder.Close()
	if _, err := holder.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.ExecSQL("UPDATE t SET v = 5 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	var notified atomic.Bool
	w := e.NewSession()
	w.ReserveWriteLockNotify("t", notifyFunc(func() { notified.Store(true) }))
	if notified.Load() {
		t.Fatal("queued ticket reported granted")
	}
	w.Close() // drops the unconsumed ticket
	if !notified.Load() {
		t.Fatal("dropped ticket never notified")
	}
	if _, err := holder.ExecSQL("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// TestExecutionTimeAcquisitionJoinsTicketQueue: an exclusive acquisition
// with no enqueue-time reservation issues its ticket at the tail of the
// same FIFO, so it cannot overtake an earlier-issued ticket even while that
// ticket's owner has not executed yet.
func TestExecutionTimeAcquisitionJoinsTicketQueue(t *testing.T) {
	e := ticketTestEngine(t)

	// first holds an enqueue-time ticket (granted: table is free).
	first := e.NewSession()
	defer first.Close()
	first.ReserveWriteLockNotify("t", nil)

	// second writes without a reservation: its execution-time ticket joins
	// the queue behind first's granted ticket and must wait.
	done := make(chan error, 1)
	second := e.NewSession()
	defer second.Close()
	go func() {
		_, err := second.ExecSQL("UPDATE t SET v = v * 10 WHERE id = 1")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("execution-time acquisition overtook a granted ticket (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
	}

	// first consumes its ticket; its write applies, then second's.
	if _, err := first.ExecSQL("UPDATE t SET v = v + 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r := e.NewSession()
	defer r.Close()
	res, err := r.ExecSQL("SELECT v FROM t WHERE id = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read back: %v %v", res, err)
	}
	if got, _ := res.Rows[0][0].AsInt(); got != 10 {
		t.Fatalf("final v = %d, want 10 ((0+1)*10: ticket order)", got)
	}
}

// TestHolderTicketQueuedBehindWaiterIsGranted: a transaction's second
// ticket, reserved while its first was still queued, sits behind another
// session's ticket. Once the transaction holds the lock that later ticket
// is granted too — the other session waits on the transaction, so the
// transaction cannot wait behind it. A replica that received the
// transaction's writes interleaved with another writer's reaches exactly
// this queue, while the replica that answered the client granted the second
// ticket at issue.
func TestHolderTicketQueuedBehindWaiterIsGranted(t *testing.T) {
	e := ticketTestEngine(t)
	holder := e.NewSession()
	defer holder.Close()
	if _, err := holder.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.ExecSQL("UPDATE t SET v = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	// Queue: tx's first ticket, other's ticket, tx's second ticket.
	tx := e.NewSession()
	defer tx.Close()
	if _, err := tx.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	tx.ReserveWriteLockNotify("t", nil)
	other := e.NewSession()
	defer other.Close()
	other.ReserveWriteLockNotify("t", nil)
	tx.ReserveWriteLockNotify("t", nil)
	if _, err := holder.ExecSQL("COMMIT"); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		var err error
		for _, q := range []string{"UPDATE t SET v = v + 1 WHERE id = 1", "UPDATE t SET v = v * 10 WHERE id = 1", "COMMIT"} {
			if _, err = tx.ExecSQL(q); err != nil {
				break
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the lock holder's second ticket waits behind a session blocked on the holder")
	}
	if _, err := other.ExecSQL("UPDATE t SET v = v + 3 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := other.ExecSQL("SELECT v FROM t WHERE id = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read back: %v %v", res, err)
	}
	if got, _ := res.Rows[0][0].AsInt(); got != 23 {
		t.Fatalf("final v = %d, want 23 ((1+1)*10+3: ticket order)", got)
	}
}

// TestLockManagerQuiescesUnderRandomSchedules drives sessions through
// random interleavings of every lock-manager path — plain and notified
// reservations, execution-time tickets, lock timeouts, Kill from another
// goroutine, commit, rollback and Reset — and checks that the engine
// quiesces clean: no held lock, no queued ticket, and every grant callback
// fired exactly once (on grant, or when its ticket left the queue
// ungranted). Run with -race.
func TestLockManagerQuiescesUnderRandomSchedules(t *testing.T) {
	const (
		nSessions = 6
		nTables   = 3
		nSteps    = 300
	)
	e := New("quiesce", WithLockTimeout(2*time.Millisecond))
	setup := e.NewSession()
	for i := 0; i < nTables; i++ {
		for _, q := range []string{
			fmt.Sprintf("CREATE TABLE t%d (id INTEGER PRIMARY KEY, v INTEGER)", i),
			fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (1, 0)", i),
		} {
			if _, err := setup.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	setup.Close()

	var (
		mu        sync.Mutex
		callbacks []*atomic.Int32 // one per notified reservation

		timeouts, kills atomic.Int32 // paths the schedule actually hit
	)
	notified := func() notifyFunc {
		n := new(atomic.Int32)
		mu.Lock()
		callbacks = append(callbacks, n)
		mu.Unlock()
		return func() { n.Add(1) }
	}

	var slots [nSessions]atomic.Pointer[Session]
	stopKiller := make(chan struct{})
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stopKiller:
				return
			case <-time.After(time.Duration(rng.Intn(3000)) * time.Microsecond):
			}
			if s := slots[rng.Intn(nSessions)].Load(); s != nil {
				s.Kill()
			}
		}
	}()

	// The killer races the workers on the wall clock, so a worker keeps
	// stepping past nSteps (up to 20 times as far) until some lock wait has
	// timed out and some session has been killed.
	tame := func() bool { return timeouts.Load() == 0 || kills.Load() == 0 }
	var wg sync.WaitGroup
	for w := 0; w < nSessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			s := e.NewSession()
			slots[w].Store(s)
			for i := 0; i < nSteps || tame() && i < 20*nSteps; i++ {
				if s.Killed() {
					kills.Add(1)
					// The teardown the backend runs after Kill: roll back
					// and release on the owning goroutine, then replace.
					s.Reset()
					s.Close()
					s = e.NewSession()
					slots[w].Store(s)
				}
				tbl := fmt.Sprintf("t%d", rng.Intn(nTables))
				var err error
				switch rng.Intn(8) {
				case 0:
					s.ReserveWriteLockNotify(tbl, notified())
				case 1:
					s.ReserveWriteLockNotify(tbl, nil)
				case 2, 3:
					// Consumes this session's oldest reservation on tbl, or
					// issues an execution-time ticket when it has none.
					_, err = s.ExecSQL(fmt.Sprintf("UPDATE %s SET v = v + 1 WHERE id = 1", tbl))
				case 4:
					_, err = s.ExecSQL("BEGIN")
				case 5:
					_, err = s.ExecSQL("COMMIT")
				case 6:
					_, err = s.ExecSQL("ROLLBACK")
				default:
					s.Reset()
				}
				if errors.Is(err, ErrLockTimeout) {
					timeouts.Add(1)
				}
				if err != nil && !errors.Is(err, ErrLockTimeout) && !errors.Is(err, ErrKilled) &&
					!errors.Is(err, ErrNoTransaction) && !errors.Is(err, ErrTxInProgress) {
					t.Errorf("session %d step %d: %v", w, i, err)
					return
				}
			}
			s.Close()
		}(w)
	}
	wg.Wait()
	close(stopKiller)
	<-killerDone

	if n := e.HeldLocks(); n != 0 {
		t.Errorf("HeldLocks = %d at quiesce, want 0", n)
	}
	if n := e.PendingTickets(); n != 0 {
		t.Errorf("PendingTickets = %d at quiesce, want 0", n)
	}
	if len(callbacks) == 0 || timeouts.Load() == 0 || kills.Load() == 0 {
		t.Fatalf("schedule too tame: %d notified reservations, %d lock timeouts, %d kills",
			len(callbacks), timeouts.Load(), kills.Load())
	}
	bad := 0
	for _, n := range callbacks {
		if n.Load() != 1 {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d grant callbacks did not fire exactly once", bad, len(callbacks))
	}
}

// TestLockTableStaysBoundedUnderNameChurn: a table's lock lives in the lock
// table only while a session holds or waits for it, so creating, writing
// through an enqueue-time ticket (as the backend does) and dropping 5 000
// distinct tables — temporary and ordinary, like TPC-W's per-client
// best-seller tables — leaves the lock table at its starting size and
// keeps only a few idle locks for reuse.
func TestLockTableStaysBoundedUnderNameChurn(t *testing.T) {
	e := New("churn")
	s := e.NewSession() // long-lived, as the backend's recycled sessions are
	defer s.Close()
	e.locks.mu.Lock()
	start := len(e.locks.locks)
	e.locks.mu.Unlock()
	for i := 0; i < 5000; i++ {
		temp := ""
		if i%2 == 0 {
			temp = "TEMPORARY "
		}
		name := fmt.Sprintf("besttmp_%d", i)
		if _, err := s.ExecSQL("CREATE " + temp + "TABLE " + name + " (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
			t.Fatal(err)
		}
		s.ReserveWriteLockNotify(name, notifyFunc(func() {}))
		for _, q := range []string{"INSERT INTO " + name + " (id, v) VALUES (1, 1)", "DROP TABLE " + name} {
			if _, err := s.ExecSQL(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.locks.mu.Lock()
	defer e.locks.mu.Unlock()
	if n := len(e.locks.locks); n != start {
		t.Errorf("lock table holds %d entries after the churn, %d before", n, start)
	}
	if n := len(e.locks.free); n > 2 {
		t.Errorf("%d idle locks kept for reuse; one session needs at most 2", n)
	}
}
