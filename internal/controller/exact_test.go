package controller

// The copy-to-exact contract (checkpoint.go), checked once and run through
// its three kinds of caller: a whole-backend restore from an operator's dump,
// re-integration with a dump the virtual database finds itself, and a
// single-table AddTableHost. The obligations are the same for all three
// because quiesced, snapshot and catchUp are.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

const exactSeedRows = 250

// exactCaller is one way of bringing db1's copy of table a to exact.
type exactCaller struct {
	name  string
	hosts []int // hosts of table a when the scenario starts
	// prep puts db1 into the state the caller starts from and returns the
	// dump it needs, if any.
	prep func(t *testing.T, v *VirtualDatabase) *recovery.Dump
	run  func(v *VirtualDatabase, dump *recovery.Dump) error
}

var exactCallers = []exactCaller{
	{
		name:  "RestoreBackend",
		hosts: []int{0, 1},
		prep: func(t *testing.T, v *VirtualDatabase) *recovery.Dump {
			dump, err := v.BackupBackend("db0", "operator-cp")
			if err != nil {
				t.Fatal(err)
			}
			v.DisableBackend("db1")
			return dump
		},
		run: func(v *VirtualDatabase, dump *recovery.Dump) error { return v.RestoreBackend("db1", dump) },
	},
	{
		// What the supervisor runs, with no cached dump to start from.
		name:  "reintegrate",
		hosts: []int{0, 1},
		prep: func(t *testing.T, v *VirtualDatabase) *recovery.Dump {
			v.DisableBackend("db1")
			return nil
		},
		run: func(v *VirtualDatabase, _ *recovery.Dump) error { return v.RestoreBackend("db1", nil) },
	},
	{
		name:  "AddTableHost",
		hosts: []int{0},
		prep:  func(*testing.T, *VirtualDatabase) *recovery.Dump { return nil },
		run:   func(v *VirtualDatabase, _ *recovery.Dump) error { return v.AddTableHost("a", "db1") },
	},
}

// exactFixture is a two-backend partially replicated vdb with table a, db0
// the donor and db1 the target.
type exactFixture struct {
	v       *VirtualDatabase
	engines []*sqlengine.Engine
	log     *recovery.MemoryLog
	target  *backend.Backend
	dump    *recovery.Dump
	c       exactCaller
}

func newExactFixture(t *testing.T, c exactCaller) *exactFixture {
	t.Helper()
	log := recovery.NewMemoryLog()
	v, engines := mkPartialVDB(t, 2, map[string][]int{"a": c.hosts}, exactSeedRows, log)
	target, err := v.Backend("db1")
	if err != nil {
		t.Fatal(err)
	}
	return &exactFixture{v: v, engines: engines, log: log, target: target, dump: c.prep(t, v), c: c}
}

func (f *exactFixture) run() error { return f.c.run(f.v, f.dump) }

// published reports whether db1's copy of a is in routing.
func (f *exactFixture) published() bool {
	return f.target.Enabled() && f.v.Replication().Hosted("a", "db1")
}

// lastSeq is the log's current end.
func (f *exactFixture) lastSeq(t *testing.T) uint64 {
	t.Helper()
	entries, err := f.log.Since(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		return 0
	}
	return entries[len(entries)-1].Seq
}

// waitMarker returns once the log holds a checkpoint marker: the one the
// procedure logs after seq, or for a caller that brings its own dump, the
// one the dump was taken at.
func (f *exactFixture) waitMarker(t *testing.T, after uint64) {
	t.Helper()
	if f.dump != nil {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, err := f.log.Since(after)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Class == recovery.ClassCheckpoint {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the procedure never logged its checkpoint marker")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// requireExact checks the copy is published and identical to the donor's.
func (f *exactFixture) requireExact(t *testing.T) {
	t.Helper()
	if !f.published() {
		t.Fatal("copy not published")
	}
	if want, got := sortedTableDump(t, f.engines[0], "a"), sortedTableDump(t, f.engines[1], "a"); got != want {
		t.Fatalf("published copy diverged:\n--- donor:\n%s\n--- db1:\n%s", want, got)
	}
}

// setQuiesceWait shortens the procedure's bounded waits for one test.
func setQuiesceWait(t *testing.T, d time.Duration) {
	t.Helper()
	old := quiesceWait
	quiesceWait = d
	t.Cleanup(func() { quiesceWait = old })
}

func TestCopyToExactContract(t *testing.T) {
	obligations := []struct {
		name string
		run  func(t *testing.T, c exactCaller)
	}{
		{"open transaction holds it back until the bound", exactOpenTransaction},
		{"abandoned transaction replays as rolled back", exactAbandonedTransaction},
		{"racing writes land exactly once and reads never see a partial copy", exactRacingTraffic},
		{"target crashing mid-restore is never published", exactCrashMidRestore},
	}
	for _, c := range exactCallers {
		for _, o := range obligations {
			t.Run(c.name+"/"+o.name, func(t *testing.T) { o.run(t, c) })
		}
	}
}

// exactOpenTransaction: a write transaction still open — spanning the moment
// the marker wants to be placed, or with writes in the replay window and no
// demarcation yet — holds the procedure back; after the bound it gives up
// with ErrCheckpointBusy and publishes nothing. Once the transaction
// commits, a second run publishes a copy holding its write exactly once.
func exactOpenTransaction(t *testing.T, c exactCaller) {
	setQuiesceWait(t, 100*time.Millisecond)
	f := newExactFixture(t, c)
	s := openSession(t, f.v)
	exec(t, s, "BEGIN")
	exec(t, s, "UPDATE a SET v = v + 5 WHERE id = 0")

	if err := f.run(); !errors.Is(err, ErrCheckpointBusy) {
		t.Fatalf("with a transaction open: got %v, want ErrCheckpointBusy", err)
	}
	if f.published() {
		t.Fatal("copy published past an open transaction")
	}
	exec(t, s, "COMMIT")
	if err := f.run(); err != nil {
		t.Fatalf("after the commit: %v", err)
	}
	f.requireExact(t)
	if got := countOn(t, f.engines[1], "SELECT v FROM a WHERE id = 0"); got != 5 {
		t.Fatalf("the transaction's write reached the copy as v = %d, want 5", got)
	}
}

// exactAbandonedTransaction: a transaction writes inside the replay window
// and its session dies without a demarcation. Under the final quiesce it is
// unresolved and inactive, so it must replay as rolled back, not hold the
// procedure until the bound and not leak its write into the copy.
func exactAbandonedTransaction(t *testing.T, c exactCaller) {
	f := newExactFixture(t, c)
	// A slow restore keeps the window between marker and final pass open.
	f.target.SetFaultPlan(backend.NewFaultPlan(&backend.Rule{Kind: backend.OpDirect, Latency: 50 * time.Millisecond, Times: 3}))
	after := f.lastSeq(t)
	done := make(chan error, 1)
	go func() { done <- f.run() }()
	f.waitMarker(t, after)

	s := openSession(t, f.v)
	exec(t, s, "BEGIN")
	exec(t, s, "UPDATE a SET v = 777 WHERE id = 1")
	f.v.AbortSessionTx(s.TxID())
	if f.published() {
		t.Fatal("the window closed before the transaction was abandoned: the scenario tested nothing")
	}

	start := time.Now()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > quiesceWait/2 {
		t.Fatalf("the abandoned transaction held the procedure for %v", waited)
	}
	f.requireExact(t)
	if got := countOn(t, f.engines[1], "SELECT COUNT(*) FROM a WHERE v = 777"); got != 0 {
		t.Fatal("the abandoned transaction's write is in the copy")
	}
}

// exactRacingTraffic: a writer hammers table a through the whole procedure
// and beyond while readers count its rows. Every write is acknowledged
// (nothing is taken off-line to make the copy), lands on the copy exactly
// once — replayed from the log, or dispatched live after the publish; an
// increment applied twice or an insert lost shows in the final comparison —
// and no read is served from a copy that is not caught up: rows are only
// ever inserted, so a read counting fewer rows than were acknowledged before
// it started saw such a copy.
func exactRacingTraffic(t *testing.T, c exactCaller) {
	f := newExactFixture(t, c)
	// A slow restore keeps the half-restored copy around for a readable time.
	f.target.SetFaultPlan(backend.NewFaultPlan(&backend.Rule{Kind: backend.OpDirect, Latency: 30 * time.Millisecond, Times: 3}))

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	var increments, inserts atomic.Int64 // acknowledged writes
	for r := 0; r < 2; r++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			s, err := f.v.NewSession("user", "pw")
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := exactSeedRows + inserts.Load()
				res, err := s.Exec("SELECT COUNT(*) FROM a", nil)
				if err != nil {
					t.Errorf("read during the procedure: %v", err)
					return
				}
				if n := res.Rows[0][0].I; n < floor {
					t.Errorf("read observed %d rows with %d acknowledged: served from a copy that was not caught up", n, floor)
					return
				}
			}
		}()
	}
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		s, err := f.v.NewSession("user", "pw")
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
			if i%10 == 9 {
				if _, err = s.Exec(fmt.Sprintf("INSERT INTO a (id, v) VALUES (%d, 1)", 10000+i), nil); err == nil {
					inserts.Add(1)
				}
			} else if _, err = s.Exec("UPDATE a SET v = v + 1 WHERE id = 0", nil); err == nil {
				increments.Add(1)
			}
			if err != nil {
				t.Errorf("write %d during the procedure: %v", i, err)
				return
			}
		}
	}()

	if err := f.run(); err != nil {
		t.Fatal(err)
	}
	// Keep writing after the publish: these reach the copy live.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	traffic.Wait()

	f.requireExact(t)
	if got := countOn(t, f.engines[1], "SELECT v FROM a WHERE id = 0"); got != increments.Load() {
		t.Fatalf("copy holds %d increments, the writer made %d", got, increments.Load())
	}
	if got := countOn(t, f.engines[1], "SELECT COUNT(*) FROM a"); got != exactSeedRows+inserts.Load() {
		t.Fatalf("copy holds %d rows, want %d", got, exactSeedRows+inserts.Load())
	}
}

// exactCrashMidRestore: the target dies at the third statement of its
// restore, with the table created and no row in it. The procedure fails and the half-restored copy never enters
// routing; once the target heals, re-integration discards whatever the
// aborted attempt left behind.
func exactCrashMidRestore(t *testing.T, c exactCaller) {
	f := newExactFixture(t, c)
	plan := backend.NewFaultPlan(&backend.Rule{Kind: backend.OpDirect, AfterN: 3, Times: 1, Crash: true})
	f.target.SetFaultPlan(plan)

	if err := f.run(); err == nil {
		t.Fatal("the procedure succeeded on a target that crashed mid-restore")
	}
	if f.published() {
		t.Fatal("half-restored copy published")
	}
	s := openSession(t, f.v)
	if got := exec(t, s, "SELECT COUNT(*) FROM a").Rows[0][0].I; got != exactSeedRows {
		t.Fatalf("read after the failed attempt saw %d rows, want %d", got, exactSeedRows)
	}
	exec(t, s, "UPDATE a SET v = 3 WHERE id = 2")

	// Whichever caller it was, the target is down now: an AddTableHost that
	// cannot drop its aborted copy disables the backend holding it.
	plan.Heal()
	if err := f.v.RestoreBackend("db1", nil); err != nil {
		t.Fatalf("re-integration after the heal: %v", err)
	}
	if len(c.hosts) == 1 {
		// db1 never became a host of a: the leftover of the aborted
		// AddTableHost must be gone, not re-attached.
		if f.published() || hasTable(f.engines[1], "a") {
			t.Fatal("re-integration kept the aborted AddTableHost copy")
		}
		return
	}
	f.requireExact(t)
}
