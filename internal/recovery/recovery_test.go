package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// logStorages are the two stores behind the one sequencer. at binds an
// opener to one fresh storage location; calling the opener again reopens
// the same storage (which only the persistent ones remember).
// forgets marks the store that drops what no pin holds.
var logStorages = []struct {
	name       string
	persistent bool
	forgets    bool
	at         func(t *testing.T) func() (Log, error)
}{
	{"memory", false, true, func(t *testing.T) func() (Log, error) {
		return func() (Log, error) { return NewMemoryLog(), nil }
	}},
	{"file", true, false, func(t *testing.T) func() (Log, error) {
		path := filepath.Join(t.TempDir(), "recovery.log")
		return func() (Log, error) { return OpenFileLog(path) }
	}},
}

func mustOpen(t *testing.T, open func() (Log, error)) Log {
	t.Helper()
	l, err := open()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// prefixErr reports the first place where got is not exactly the entries
// 1, 2, 3, ... — a hole or a misorder.
func prefixErr(got []Entry) error {
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			return fmt.Errorf("hole or misorder: entry %d has seq %d", i, e.Seq)
		}
	}
	return nil
}

// requirePrefix is prefixErr for the test's own goroutine.
func requirePrefix(t *testing.T, got []Entry) {
	t.Helper()
	if err := prefixErr(got); err != nil {
		t.Fatal(err)
	}
}

// runErr reports the first place where got is not exactly the entries
// after+1, after+2, ... — the window Since(after) must return.
func runErr(got []Entry, after uint64) error {
	for i, e := range got {
		if e.Seq != after+uint64(i+1) {
			return fmt.Errorf("Since(%d): entry %d has seq %d, want %d", after, i, e.Seq, after+uint64(i+1))
		}
	}
	return nil
}

// appendN appends n writes.
func appendN(t *testing.T, l Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(Entry{Class: ClassWrite, SQL: "w", Tables: []string{"t"}, V: FootprintVersion}); err != nil {
			t.Fatal(err)
		}
	}
}

// heldChunks is how many chunks a memory log keeps.
func heldChunks(l Log) int { return len(l.(*MemoryLog).st.(*memStore).chunks) }

// TestLogContract is the one suite every store must pass.
func TestLogContract(t *testing.T) {
	for _, st := range logStorages {
		st := st
		t.Run(st.name, func(t *testing.T) {
			t.Run("AppendAssignsConsecutiveSeq", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				for want := uint64(1); want <= 3; want++ {
					got, err := l.Append(Entry{User: "u", TxID: 1, Class: ClassWrite, SQL: "w"})
					if err != nil || got != want {
						t.Fatalf("Append = %d, %v; want %d", got, err, want)
					}
				}
			})

			t.Run("SinceFiltersBySeq", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				l.Append(Entry{Class: ClassWrite, SQL: "w1"})
				mid, _ := l.Append(Entry{Class: ClassWrite, SQL: "w2"})
				l.Append(Entry{Class: ClassWrite, SQL: "w3"})
				got, err := l.Since(mid)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0].SQL != "w3" {
					t.Fatalf("Since(%d) = %+v", mid, got)
				}
				all, _ := l.Since(0)
				if len(all) != 3 {
					t.Fatalf("Since(0) = %d entries", len(all))
				}
			})

			t.Run("CheckpointMarkers", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				l.Append(Entry{Class: ClassWrite, SQL: "before"})
				seq, err := l.Checkpoint("cp1")
				if err != nil {
					t.Fatal(err)
				}
				l.Append(Entry{Class: ClassWrite, SQL: "after"})
				got, ok, err := l.CheckpointSeq("cp1")
				if err != nil || !ok || got != seq {
					t.Fatalf("CheckpointSeq = %d, %v, %v (want %d)", got, ok, err, seq)
				}
				if _, ok, _ := l.CheckpointSeq("missing"); ok {
					t.Fatal("missing checkpoint found")
				}
				after, _ := l.Since(seq)
				if len(after) != 1 || after[0].SQL != "after" {
					t.Fatalf("entries after checkpoint: %+v", after)
				}
			})

			// Quotes, table footprints, the gate-exclusive marker and the
			// footprint version survive every store's encoding.
			t.Run("EntriesRoundTrip", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				want := []Entry{
					{User: "o'brien", TxID: 7, Class: ClassWrite, SQL: "INSERT INTO t (s) VALUES ('it''s')", Tables: []string{"a", "b"}, V: FootprintVersion},
					{Class: ClassWrite, SQL: "DROP TABLE t", Global: true, V: FootprintVersion},
					{TxID: 7, Class: ClassCommit, V: FootprintVersion},
					{TxID: 8, Class: ClassCommit},
				}
				for i := range want {
					seq, err := l.Append(want[i])
					if err != nil {
						t.Fatal(err)
					}
					want[i].Seq = seq
				}
				got, err := l.Since(0)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
				}
			})

			// Appends from many goroutines across distinct conflict classes
			// race Since: every result is a Seq-ordered, hole-free prefix
			// (run with -race).
			t.Run("ConcurrentAppends", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				const writers = 8
				const perWriter = 50
				var wg, rwg sync.WaitGroup
				stop := make(chan struct{})
				for r := 0; r < 2; r++ {
					rwg.Add(1)
					go func() {
						defer rwg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							got, err := l.Since(0)
							if err != nil {
								t.Errorf("Since: %v", err)
								return
							}
							if err := prefixErr(got); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < perWriter; i++ {
							e := Entry{
								Class:  ClassWrite,
								SQL:    fmt.Sprintf("w%d-%d", w, i),
								Tables: []string{fmt.Sprintf("t%d", w)},
								V:      FootprintVersion,
							}
							if _, err := l.Append(e); err != nil {
								t.Errorf("append: %v", err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(stop)
				rwg.Wait()
				got, err := l.Since(0)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != writers*perWriter {
					t.Fatalf("Since(0) = %d entries, want %d", len(got), writers*perWriter)
				}
				requirePrefix(t, got)
			})

			// Reopening restores the sequence counter and the checkpoint
			// marks from the stored entries.
			t.Run("SurvivesReopen", func(t *testing.T) {
				if !st.persistent {
					t.Skip("store does not outlive the process")
				}
				open := st.at(t)
				l := mustOpen(t, open)
				l.Append(Entry{User: "u", TxID: 3, Class: ClassWrite, SQL: "INSERT INTO t (a) VALUES ('x''y')"})
				cp, _ := l.Checkpoint("cp")
				l.Append(Entry{Class: ClassWrite, SQL: "w2"})
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}

				l2 := mustOpen(t, open)
				defer l2.Close()
				if seq, ok, err := l2.CheckpointSeq("cp"); err != nil || !ok || seq != cp {
					t.Fatalf("CheckpointSeq after reopen = %d, %v, %v (want %d)", seq, ok, err, cp)
				}
				after, err := l2.Since(cp)
				if err != nil || len(after) != 1 || after[0].SQL != "w2" {
					t.Fatalf("after reopen: %+v, %v", after, err)
				}
				if s, err := l2.Append(Entry{Class: ClassWrite, SQL: "w3"}); err != nil || s != cp+2 {
					t.Fatalf("append after reopen = %d, %v; want %d", s, err, cp+2)
				}
			})

			// With nothing pinned the memory store keeps at most the chunk
			// the next put goes into and the one before it, and refuses
			// what it forgot rather than answering with a gap; the file
			// store forgets nothing.
			t.Run("LogForgetsWhatNoPinHolds", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				const n = 3*chunkEntries + 5
				appendN(t, l, n)
				all, err := l.Since(0)
				_, pinErr := l.Pin(0)
				if !st.forgets {
					if err != nil || pinErr != nil || len(all) != n {
						t.Fatalf("Since(0) = %d entries, %v; Pin(0): %v", len(all), err, pinErr)
					}
					requirePrefix(t, all)
					return
				}
				if held := heldChunks(l); held > 2 {
					t.Fatalf("memory store holds %d chunks with nothing pinned", held)
				}
				if !errors.Is(err, ErrLogTruncated) || !errors.Is(pinErr, ErrLogTruncated) {
					t.Fatalf("below the floor: Since(0) = %d entries, %v; Pin(0): %v; want ErrLogTruncated", len(all), err, pinErr)
				}
				const floor = 3 * chunkEntries
				got, err := l.Since(floor)
				if err != nil || len(got) != n-floor {
					t.Fatalf("Since(%d) = %d entries, %v; want %d", floor, len(got), err, n-floor)
				}
				if err := runErr(got, floor); err != nil {
					t.Fatal(err)
				}
				if _, err := l.Since(floor - 1); !errors.Is(err, ErrLogTruncated) {
					t.Fatalf("Since(%d) = %v, want ErrLogTruncated", floor-1, err)
				}
			})

			// A pin keeps every entry after its position; release is
			// idempotent and drops only its own pin.
			t.Run("LogForgetsOnlyWhatPinsRelease", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				appendN(t, l, 10)
				const at = 5
				r1, err := l.Pin(at)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := l.Pin(at)
				if err != nil {
					t.Fatal(err)
				}
				r1()
				r1()
				appendN(t, l, 3*chunkEntries)
				got, err := l.Since(at)
				if err != nil || len(got) != 3*chunkEntries+10-at {
					t.Fatalf("Since(%d) under a pin = %d entries, %v", at, len(got), err)
				}
				if err := runErr(got, at); err != nil {
					t.Fatal(err)
				}
				r2()
				r2()
				got, err = l.Since(at)
				if !st.forgets {
					if err != nil || len(got) != 3*chunkEntries+10-at {
						t.Fatalf("file store: Since(%d) = %d entries, %v", at, len(got), err)
					}
					return
				}
				if !errors.Is(err, ErrLogTruncated) {
					t.Fatalf("Since(%d) after every pin was released = %d entries, %v; want ErrLogTruncated", at, len(got), err)
				}
				if held := heldChunks(l); held > 1 {
					t.Fatalf("memory store holds %d chunks after its last pin was released", held)
				}
			})

			// While appends race the store forgetting, Since(after) returns
			// either exactly the entries after+1, after+2, ... or, below
			// the floor, ErrLogTruncated — never a window with a hole. A
			// reader holding a pin at after always gets its window.
			t.Run("LogForgetsWithoutGapsWhileAppendsRace", func(t *testing.T) {
				l := mustOpen(t, st.at(t))
				defer l.Close()
				const writers = 4
				perWriter := 3 * chunkEntries / writers
				if !st.forgets {
					// Nothing to forget, and the file store's Since decodes
					// the whole file under the append lock: a long file
					// would let the readers starve the writers.
					perWriter = 64
				}
				var wg, rwg sync.WaitGroup
				stop := make(chan struct{})
				read := func(pinned bool) {
					defer rwg.Done()
					var after uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						release := noRelease
						if pinned {
							r, err := l.Pin(after)
							if errors.Is(err, ErrLogTruncated) {
								after += chunkEntries / 8
								continue
							} else if err != nil {
								t.Error(err)
								return
							}
							release = r
						}
						got, err := l.Since(after)
						release()
						if errors.Is(err, ErrLogTruncated) && !pinned {
							after += chunkEntries / 8
							continue
						}
						if err != nil {
							t.Errorf("Since(%d), pinned %v: %v", after, pinned, err)
							return
						}
						if err := runErr(got, after); err != nil {
							t.Error(err)
							return
						}
						if len(got) > 0 {
							after = got[len(got)/2].Seq
						}
					}
				}
				for _, pinned := range []bool{false, true} {
					rwg.Add(1)
					go read(pinned)
				}
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						e := Entry{Class: ClassWrite, SQL: "w", Tables: []string{fmt.Sprintf("t%d", w)}, V: FootprintVersion}
						for i := 0; i < perWriter; i++ {
							if _, err := l.Append(e); err != nil {
								t.Errorf("append: %v", err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(stop)
				rwg.Wait()
				if st.forgets {
					if held := heldChunks(l); held > 2 {
						t.Fatalf("memory store holds %d chunks once the readers' pins are released", held)
					}
				}
			})

			// An entry larger than any fixed line buffer (the wire accepts
			// statements up to 64 MiB) neither hides the entries after it
			// nor keeps the log from reopening.
			t.Run("LargeEntryRoundTrips", func(t *testing.T) {
				open := st.at(t)
				l := mustOpen(t, open)
				big := "INSERT INTO t (s) VALUES ('" + strings.Repeat("x", 17<<20) + "')"
				l.Append(Entry{Class: ClassWrite, SQL: big})
				l.Append(Entry{Class: ClassWrite, SQL: "small"})
				check := func(l Log) {
					t.Helper()
					got, err := l.Since(0)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != 2 || got[0].SQL != big || got[1].SQL != "small" {
						t.Fatalf("Since(0) = %d entries", len(got))
					}
					requirePrefix(t, got)
				}
				check(l)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if !st.persistent {
					return
				}
				l2 := mustOpen(t, open)
				defer l2.Close()
				check(l2)
				if s, err := l2.Append(Entry{Class: ClassWrite, SQL: "w3"}); err != nil || s != 3 {
					t.Fatalf("append after reopen = %d, %v; want 3", s, err)
				}
			})
		})
	}
}

// hookStore is a memory store whose put first runs a hook that may block or
// fail, standing in for a slow or broken disk or database.
type hookStore struct {
	memStore
	beforePut func(e Entry) error
}

func (s *hookStore) put(e Entry) error {
	if err := s.beforePut(e); err != nil {
		return err
	}
	return s.memStore.put(e)
}

// TestMemoryLogPutNeverCopies: with every entry pinned, a put moves no
// earlier entry, so the store allocates each entry's bytes about once. A
// store growing one slice by append allocates them several times over, and
// copies the whole log under the sequencer mutex, which every writer waits
// on, at each growth.
func TestMemoryLogPutNeverCopies(t *testing.T) {
	const n = 200_000
	l := NewMemoryLog()
	release, err := l.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// The text and footprint are shared by every entry, so the entries
	// themselves are all the log has to allocate.
	e := Entry{User: "u", Class: ClassWrite, SQL: "UPDATE t SET a = a + 1 WHERE id = 1", Tables: []string{"t"}, V: FootprintVersion}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(1.1 * n * float64(unsafe.Sizeof(Entry{})))
	if got > budget {
		t.Fatalf("%d appends allocated %d bytes, budget %d (1.1 × %d entries × %d B)", n, got, budget, n, unsafe.Sizeof(Entry{}))
	}
	all, err := l.Since(0)
	if err != nil || len(all) != n {
		t.Fatalf("Since(0) under Pin(0) = %d entries, %v; want %d", len(all), err, n)
	}
	requirePrefix(t, all)
}

// TestMemoryLogForgetsVectorsWithTheirChunk: a bound entry keeps its
// write's vector for as long as the memory store keeps the entry, and not
// longer. While its chunk is being filled every vector stays reachable; once
// the chunk fills and, with nothing pinned, is forgotten, a collection frees
// them all.
func TestMemoryLogForgetsVectorsWithTheirChunk(t *testing.T) {
	const sql, tracked = "UPDATE t SET a = ? WHERE id = ?", 10
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	l := NewMemoryLog()
	var freed atomic.Int32
	for i := 0; i < tracked; i++ {
		params := []sqlval.Value{sqlval.Int(int64(i)), sqlval.Int(1)}
		runtime.SetFinalizer(&params[0], func(*sqlval.Value) { freed.Add(1) })
		b := &sqlparser.Bound{Stmt: st, SQL: sql, Params: params}
		if _, err := l.Append(Entry{Class: ClassWrite, SQL: sql, Bound: b, Tables: []string{"t"}, V: FootprintVersion}); err != nil {
			t.Fatal(err)
		}
	}
	gcAndWait := func(d time.Duration, until func() bool) {
		runtime.GC()
		for deadline := time.Now().Add(d); !until() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	gcAndWait(50*time.Millisecond, func() bool { return freed.Load() > 0 })
	if f := freed.Load(); f != 0 {
		t.Fatalf("%d vectors freed while the log still holds their entries", f)
	}
	all, err := l.Since(0)
	if err != nil || len(all) != tracked {
		t.Fatalf("Since(0) = %d entries, %v; want %d", len(all), err, tracked)
	}
	for i, e := range all {
		if e.Bound == nil || e.Bound.Params[0] != sqlval.Int(int64(i)) {
			t.Fatalf("entry %d lost its vector: %+v", i, e)
		}
	}
	appendN(t, l, chunkEntries-tracked)
	if n := heldChunks(l); n != 0 {
		t.Fatalf("the full chunk is still held (%d chunks)", n)
	}
	gcAndWait(2*time.Second, func() bool { return freed.Load() == tracked })
	if f := freed.Load(); f != tracked {
		t.Fatalf("%d of %d vectors still reachable after their chunk was forgotten", tracked-f, tracked)
	}
}

// noRelease stands in for a pin a reader did not take.
func noRelease() {}

// TestSinceIsPrefixWhilePutStalls: while the put of Seq k is stalled, no
// Since may return anything past k-1, however many appenders and readers
// pile up behind it; once k is released every result is a contiguous run.
func TestSinceIsPrefixWhilePutStalls(t *testing.T) {
	const k = 5
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unstall := func() { once.Do(func() { close(release) }) }
	defer unstall() // a failing assertion must not strand the stalled put
	l := &sequencer{}
	if err := l.open(&hookStore{beforePut: func(e Entry) error {
		if e.Seq == k {
			close(entered)
			<-release
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < k; i++ {
		l.Append(Entry{Class: ClassWrite, SQL: "early"})
	}

	const writers, readers = 4, 4
	var wg sync.WaitGroup
	results := make(chan []Entry, readers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.Append(Entry{Class: ClassWrite, SQL: "stalled", Tables: []string{"s"}, V: FootprintVersion})
	}()
	<-entered
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l.Append(Entry{Class: ClassWrite, SQL: "late", Tables: []string{fmt.Sprintf("t%d", w)}, V: FootprintVersion})
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := l.Since(0)
			if err != nil {
				t.Errorf("Since: %v", err)
			}
			results <- got
		}()
	}
	// Give a broken log the chance to answer early; a correct one passes
	// whatever this window is.
	timer := time.NewTimer(50 * time.Millisecond)
	defer timer.Stop()
	seen := 0
stalled:
	for {
		select {
		case got := <-results:
			seen++
			requirePrefix(t, got)
			if n := len(got); n > k-1 {
				t.Fatalf("Since returned %d entries while seq %d was still in flight", n, k)
			}
		case <-timer.C:
			break stalled
		}
	}
	unstall()
	wg.Wait()
	for ; seen < readers; seen++ {
		requirePrefix(t, <-results)
	}
	got, _ := l.Since(0)
	if len(got) != k+writers {
		t.Fatalf("Since(0) = %d entries, want %d", len(got), k+writers)
	}
	requirePrefix(t, got)
}

// TestFailedPutConsumesNoSeq: Append reports the store's error, the next
// successful Append gets the next consecutive Seq, and Since has no hole.
func TestFailedPutConsumesNoSeq(t *testing.T) {
	errDisk := errors.New("disk full")
	failing := false
	l := &sequencer{}
	if err := l.open(&hookStore{beforePut: func(Entry) error {
		if failing {
			return errDisk
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if s, err := l.Append(Entry{Class: ClassWrite, SQL: "w1"}); err != nil || s != 1 {
		t.Fatalf("Append = %d, %v", s, err)
	}
	failing = true
	if _, err := l.Append(Entry{Class: ClassWrite, SQL: "lost"}); !errors.Is(err, errDisk) {
		t.Fatalf("Append on a failing store = %v, want %v", err, errDisk)
	}
	if _, err := l.Checkpoint("cp"); !errors.Is(err, errDisk) {
		t.Fatalf("Checkpoint on a failing store = %v, want %v", err, errDisk)
	}
	if _, ok, _ := l.CheckpointSeq("cp"); ok {
		t.Fatal("a checkpoint whose put failed left a mark")
	}
	failing = false
	if s, err := l.Append(Entry{Class: ClassWrite, SQL: "w2"}); err != nil || s != 2 {
		t.Fatalf("Append after the failure = %d, %v; want 2", s, err)
	}
	got, err := l.Since(0)
	if err != nil || len(got) != 2 || got[0].SQL != "w1" || got[1].SQL != "w2" {
		t.Fatalf("Since(0) = %+v, %v", got, err)
	}
	requirePrefix(t, got)
}

// TestOpenFileLogCorruptLine: a file that is not a log is an error, not an
// empty log.
func TestOpenFileLogCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery.log")
	if err := os.WriteFile(path, []byte("{\"seq\":1,\"class\":\"write\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenFileLog(path); err == nil {
		l.Close()
		t.Fatal("corrupt log opened without error")
	}
}

func mkBackend(t *testing.T, name string, seedSQL ...string) *backend.Backend {
	t.Helper()
	e := sqlengine.New(name)
	s := e.NewSession()
	for _, q := range seedSQL {
		if _, err := s.ExecSQL(q); err != nil {
			t.Fatalf("seed %q: %v", q, err)
		}
	}
	s.Close()
	b := backend.New(backend.Config{Name: name, Driver: &backend.EngineDriver{Engine: e}})
	b.Enable()
	t.Cleanup(b.Close)
	return b
}

func TestDumpAndRestore(t *testing.T) {
	src := mkBackend(t, "src",
		"CREATE TABLE item (i_id INTEGER PRIMARY KEY AUTO_INCREMENT, title VARCHAR NOT NULL, cost FLOAT, added TIMESTAMP, ok BOOLEAN)",
		"INSERT INTO item (title, cost, added, ok) VALUES ('a''quote', 1.5, '2004-06-27 10:00:00', TRUE), ('b', NULL, NULL, FALSE)",
		"CREATE TABLE empty_table (x INTEGER)",
	)
	d, err := TakeDump("cp1", src.Driver().(backend.SchemaProvider))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tables) != 2 {
		t.Fatalf("tables dumped = %d", len(d.Tables))
	}

	// JSON round trip.
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}

	dst := mkBackend(t, "dst")
	if err := Restore(d2, dst); err != nil {
		t.Fatal(err)
	}
	res, err := dst.Read(0, nil, "SELECT title, cost, ok FROM item ORDER BY i_id")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("restored rows: %v %v", res, err)
	}
	if res.Rows[0][0].AsString() != "a'quote" {
		t.Errorf("escaped string: %v", res.Rows[0][0])
	}
	if !res.Rows[1][1].IsNull() {
		t.Errorf("NULL not restored: %v", res.Rows[1][1])
	}
	if !res.Rows[0][2].AsBool() || res.Rows[1][2].AsBool() {
		t.Errorf("bools not restored: %v", res.Rows)
	}
	// Auto-increment continues after restore.
	out, err := dst.Exec(nil, "INSERT INTO item (title) VALUES ('c')")
	if err != nil || out.LastInsertID != 3 {
		t.Errorf("auto-inc after restore: %+v %v", out, err)
	}
}

func TestRestoreOverwritesExisting(t *testing.T) {
	src := mkBackend(t, "src2",
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t (a) VALUES (1)")
	d, _ := TakeDump("cp", src.Driver().(backend.SchemaProvider))
	dst := mkBackend(t, "dst2",
		"CREATE TABLE t (a INTEGER)",
		"INSERT INTO t (a) VALUES (99), (98)")
	if err := Restore(d, dst); err != nil {
		t.Fatal(err)
	}
	res, _ := dst.Read(0, nil, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("restore did not overwrite: %v", res.Rows[0][0])
	}
}

func TestReplayAppliesOnlyCommitted(t *testing.T) {
	l := NewMemoryLog()
	// tx1 commits, tx2 aborts, tx3 never finishes, plus one autocommit.
	l.Append(Entry{TxID: 1, Class: ClassBegin})
	l.Append(Entry{TxID: 1, Class: ClassWrite, SQL: "INSERT INTO t (a) VALUES (1)"})
	l.Append(Entry{TxID: 2, Class: ClassBegin})
	l.Append(Entry{TxID: 2, Class: ClassWrite, SQL: "INSERT INTO t (a) VALUES (2)"})
	l.Append(Entry{TxID: 1, Class: ClassCommit})
	l.Append(Entry{TxID: 2, Class: ClassRollback})
	l.Append(Entry{TxID: 0, Class: ClassWrite, SQL: "INSERT INTO t (a) VALUES (3)"})
	l.Append(Entry{TxID: 3, Class: ClassBegin})
	l.Append(Entry{TxID: 3, Class: ClassWrite, SQL: "INSERT INTO t (a) VALUES (4)"})

	b := mkBackend(t, "rb", "CREATE TABLE t (a INTEGER)")
	applied, err := ReplayParallel(l, 0, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
	res, _ := b.Read(0, nil, "SELECT a FROM t ORDER BY a")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[1][0].I != 3 {
		t.Fatalf("replayed rows: %v", res.Rows)
	}
}

func TestReplayFromCheckpoint(t *testing.T) {
	l := NewMemoryLog()
	l.Append(Entry{Class: ClassWrite, SQL: "INSERT INTO t (a) VALUES (1)"})
	seq, _ := l.Checkpoint("cp")
	l.Append(Entry{Class: ClassWrite, SQL: "INSERT INTO t (a) VALUES (2)"})

	b := mkBackend(t, "cpb", "CREATE TABLE t (a INTEGER)")
	applied, err := ReplayParallel(l, seq, b, 1)
	if err != nil || applied != 1 {
		t.Fatalf("applied = %d, %v", applied, err)
	}
	res, _ := b.Read(0, nil, "SELECT a FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
}

func TestReplayErrorsSurfaceSQL(t *testing.T) {
	l := NewMemoryLog()
	l.Append(Entry{Class: ClassWrite, SQL: "INSERT INTO missing (a) VALUES (1)"})
	b := mkBackend(t, "eb", "CREATE TABLE t (a INTEGER)")
	_, err := ReplayParallel(l, 0, b, 1)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("replay error: %v", err)
	}
}

// TestReplayErrorsSurfaceBoundRendering: a bound entry replays as its
// statement and vector, and a replay error names it by its rendering, so it
// reads as a logged text always did.
func TestReplayErrorsSurfaceBoundRendering(t *testing.T) {
	const sql = "INSERT INTO t (a, s) VALUES (?, ?)"
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	l := NewMemoryLog()
	for _, a := range []int64{8, 7} {
		b := &sqlparser.Bound{Stmt: st, SQL: sql, Params: []sqlval.Value{sqlval.Int(a), sqlval.String_("it's")}}
		if _, err := l.Append(Entry{Class: ClassWrite, SQL: sql, Bound: b, Tables: []string{"t"}, V: FootprintVersion}); err != nil {
			t.Fatal(err)
		}
	}
	b := mkBackend(t, "eb", "CREATE TABLE t (a INTEGER PRIMARY KEY, s VARCHAR)", "INSERT INTO t (a, s) VALUES (7, 'x')")
	applied, err := ReplayParallel(l, 0, b, 1)
	const want = "recovery: replay seq 2 (INSERT INTO t (a, s) VALUES (7, 'it''s')): "
	if err == nil || !strings.HasPrefix(err.Error(), want) || applied != 1 {
		t.Fatalf("replay applied %d: %v; want 1 and an error starting %q", applied, err, want)
	}
	res, err := b.Read(0, nil, "SELECT s FROM t WHERE a = 8")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "it's" {
		t.Fatalf("the bound entry replayed as %v, %v", res, err)
	}
}

// TestFileLogReplaysRareWriteForms: a FileLog outlives the binary that
// wrote it, and replay stops at the first entry that fails, so every write
// form the parser has accepted must still replay from a reopened file, or
// re-integration aborts. The statements are the write forms no workload
// sends (docs/ARCHITECTURE.md, "The SQL the engine supports, and who needs
// it"), the first a grammar cleanup would remove; such a cleanup has to
// keep them replayable or turn this test into the typed error it chose.
func TestFileLogReplaysRareWriteForms(t *testing.T) {
	stmts := []string{
		"CREATE TABLE p (a INTEGER, b INTEGER, c VARCHAR NULL UNIQUE, d INTEGER REFERENCES q (x), PRIMARY KEY (a, b))",
		"CREATE UNIQUE INDEX pc ON p (c)",
		"CREATE INDEX pd ON p (d)",
		"CREATE INDEX pd2 ON p (d)",
		"CREATE INDEX pbd ON p (b, d)",
		"DROP INDEX pd2 ON p",
		"INSERT INTO p (a, b, c, d) VALUES (1, 1, 'x', NULL), (1, 2, 'yy', 3), (2, 1, 'zzz', 4)",
		"CREATE TABLE s (a INTEGER, n INTEGER, d INTEGER)",
		"INSERT INTO s (a, n, d) SELECT DISTINCT a, LENGTH(c), COALESCE(d, 0) FROM p WHERE b = 1",
		"UPDATE p SET c = UPPER(c) WHERE ABS(b) = 2",
		"DELETE FROM p WHERE MOD(a, 2) = 0",
	}
	path := filepath.Join(t.TempDir(), "recovery.log")
	l := mustOpen(t, func() (Log, error) { return OpenFileLog(path) })
	for _, q := range stmts {
		if _, err := l.Append(Entry{Class: ClassWrite, SQL: q}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, func() (Log, error) { return OpenFileLog(path) })
	defer l.Close()

	src := mkBackend(t, "rare-src", stmts...)
	dst := mkBackend(t, "rare-dst")
	if applied, err := ReplayParallel(l, 0, dst, 1); err != nil || applied != len(stmts) {
		t.Fatalf("replay applied %d of %d: %v", applied, len(stmts), err)
	}
	for _, q := range []string{
		"SELECT a, b, c, d FROM p ORDER BY a, b",
		"SELECT a, n, d FROM s ORDER BY a",
	} {
		want, err := src.Read(0, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.Read(0, nil, q)
		if err != nil || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s after replay = %v, %v; want %v", q, got, err, want.Rows)
		}
	}
	for _, b := range []*backend.Backend{src, dst} {
		if _, err := b.DirectExec(nil, "INSERT INTO p (a, b, c) VALUES (9, 9, 'x')"); err == nil {
			t.Fatalf("%s accepted a duplicate of a UNIQUE index key", b.Name())
		}
	}
}

func TestInsertSQLBatching(t *testing.T) {
	td := TableDump{Name: "t", Columns: []string{"a"}}
	for i := 0; i < 250; i++ {
		td.Rows = append(td.Rows, []ValueDump{{K: "i", V: fmt.Sprint(i)}})
	}
	stmts := td.InsertSQL(100)
	if len(stmts) != 3 {
		t.Fatalf("batches = %d, want 3", len(stmts))
	}
	if !strings.HasPrefix(stmts[0], "INSERT INTO t (a) VALUES ") {
		t.Errorf("batch form: %s", stmts[0][:40])
	}
}

// TestEntryConflictsWithGlobalDemarcation: a commit of a transaction that
// was sequenced gate-exclusive (e.g. it performed DDL) conflicts with
// everything even though its table list is empty.
func TestEntryConflictsWithGlobalDemarcation(t *testing.T) {
	commit := Entry{TxID: 1, Class: ClassCommit, Global: true}
	w := Entry{TxID: 2, Class: ClassWrite, Tables: []string{"x"}, V: FootprintVersion}
	if !commit.ConflictsWith(&w) {
		t.Fatal("global commit must conflict with a write")
	}
	empty := Entry{TxID: 3, Class: ClassCommit, V: FootprintVersion}
	if empty.ConflictsWith(&w) {
		t.Fatal("a footprint-aware commit that touched nothing conflicts with nothing")
	}
	// A demarcation appended without a footprint (V=0) has an UNKNOWN
	// footprint, not an empty one: it must be treated conservatively.
	unknown := Entry{TxID: 4, Class: ClassCommit}
	if !unknown.ConflictsWith(&w) {
		t.Fatal("a V=0 commit's footprint is unknown: must conflict with everything")
	}
}
