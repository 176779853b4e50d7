package recovery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cjdbc/internal/backend"
	"cjdbc/internal/conflictsched"
	"cjdbc/internal/sqlparser"
)

// HostFilter restricts replay to a backend's hosted tables under RAIDb-2
// partial replication: it reports whether the backend hosts a table.
// Entries whose recorded footprint contains a table the filter rejects are
// skipped — they were never dispatched to the backend live, so its replay
// stream is exactly the hosted subsequence of the log. Entries with no
// recorded tables (V=0, or statements with genuinely unknown footprints)
// replay everywhere. nil means full replication.
type HostFilter func(table string) bool

// entryHosted reports whether a log entry belongs on a backend under the
// placement filter. The rule mirrors dispatch: a statement is sent to the
// backends hosting every table it references, so an entry replays only
// where its whole footprint is hosted.
func entryHosted(e *Entry, hosted HostFilter) bool {
	if hosted == nil || len(e.Tables) == 0 {
		return true
	}
	for _, t := range e.Tables {
		if !hosted(t) {
			return false
		}
	}
	return true
}

// ReplayParallel applies the committed writes recorded after seq to a
// backend on up to workers concurrent appliers. The paper replays the write
// log sequentially when a backend re-integrates (§3.2) and flags the
// resulting re-integration time as the cost of cluster elasticity; the
// conflict footprint every entry carries (recorded under the sequencer's
// class locks, see Entry) lets disjoint conflict classes replay
// concurrently instead. Each entry waits only on the completion of the
// newest earlier conflicting entry — the same per-table dependency rule the
// backend's write lanes use — so Seq order restricted to any conflict class
// is preserved, which is exactly the order every backend originally applied
// those entries in. Entries of the same transaction are chained through a
// synthetic per-transaction key; globally sequenced entries (DDL, unknown
// footprints) and entries without a footprint (V = 0) are barriers that
// serialize against everything. It is one pass over the whole log in which
// every transaction without a logged demarcation counts as abandoned.
//
// workers <= 0 defaults to GOMAXPROCS; workers == 1 is the paper's
// sequential replay — one applier — and the reference the parallel path is
// tested against. On error the first failing entry (by
// Seq) is reported, every in-flight applier is drained before returning,
// and no entry that conflicts with the failed one has been applied out of
// order; entries of classes disjoint from the failure may or may not have
// applied, which is why the caller must keep the backend disabled on error.
func ReplayParallel(l Log, seq uint64, b *backend.Backend, workers int) (applied int, err error) {
	_, _, applied, err = ReplayPassHosted(l, seq, b, workers, nil, func(uint64) bool { return true })
	return applied, err
}

// ReplayPassHosted applies to b the committed writes in the log window
// (from, cut] and returns cut, the last Seq up to which no transaction with a
// hosted write is still open: the first hosted write of a transaction whose
// demarcation is not logged yet ends the pass. Everything at or below cut is
// settled — committed writes applied, rolled-back ones skipped — so the next
// pass starts from cut, and a copy's progress through the log is that one
// Seq. A transaction whose writes fall below cut and whose commit lands
// after it was applied whole by this pass: the commit is in the window it
// read, and a commit always follows its writes.
//
// abandoned names the transactions the caller has proven can never
// demarcate; they replay as rolled back and do not end the pass. nil means
// none is. unresolved lists the transactions that are neither demarcated nor
// abandoned, in the order of their first hosted write; it is empty exactly
// when cut is the last Seq of the window. A caller re-integrating a backend
// must not enable it while unresolved is non-empty. Each pass applies a
// prefix of the log, so Seq order within every conflict class holds across
// passes as well as within one. On error the backend must stay disabled (see
// ReplayParallel).
//
// A non-nil hosted filter restricts the pass to the backend's hosted tables
// (RAIDb-2 partial replication): entries whose footprint the filter rejects
// are invisible — not applied, not counted unresolved, and never ending the
// pass — exactly as they were never dispatched to the backend live.
func ReplayPassHosted(l Log, from uint64, b *backend.Backend, workers int, hosted HostFilter, abandoned func(tx uint64) bool) (cut uint64, unresolved []uint64, applied int, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	entries, err := l.Since(from)
	if err != nil {
		return from, nil, 0, err
	}
	// A transaction's writes replay only when the log records its COMMIT
	// (§3.2: aborted or unfinished transactions are skipped).
	outcome := make(map[uint64]EntryClass)
	for _, e := range entries {
		if e.Class == ClassCommit || e.Class == ClassRollback {
			if _, seen := outcome[e.TxID]; !seen {
				outcome[e.TxID] = e.Class
			}
		}
	}
	// entries[:n] is the settled prefix: it ends before the first hosted
	// write of an open transaction.
	n := len(entries)
	open := make(map[uint64]bool)
	for i := range entries {
		e := &entries[i]
		if e.Class != ClassWrite || e.TxID == 0 || !entryHosted(e, hosted) {
			continue
		}
		if _, ended := outcome[e.TxID]; ended {
			continue
		}
		isOpen, seen := open[e.TxID]
		if !seen {
			isOpen = abandoned == nil || !abandoned(e.TxID)
			open[e.TxID] = isOpen
			if isOpen {
				unresolved = append(unresolved, e.TxID)
			}
		}
		if isOpen && n == len(entries) {
			n = i
		}
	}
	cut = from
	if n > 0 {
		cut = entries[n-1].Seq
	}

	var (
		pool    = conflictsched.NewPool(workers)
		done    atomic.Int64
		failed  atomic.Bool
		errMu   sync.Mutex
		failSeq uint64
		failErr error
	)
	recordFailure := func(e *Entry, execErr error) {
		failed.Store(true)
		errMu.Lock()
		// Appliers race; keep the lowest-Seq failure so the reported entry
		// is deterministic for a given log and failure set.
		if failErr == nil || e.Seq < failSeq {
			failSeq, failErr = e.Seq, replayErr(e, execErr)
		}
		errMu.Unlock()
	}

	// The scheduling loop submits entries in Seq order, so per-class
	// dependency chains follow Seq order; the pool's workers pull whichever
	// entry becomes ready first (ready-task handoff — no goroutine per
	// entry), and an applier only waits on strictly earlier entries, so the
	// dependency graph is acyclic and replay cannot deadlock.
	for i := range entries[:n] {
		e := &entries[i]
		if e.Class != ClassWrite || !entryHosted(e, hosted) {
			continue
		}
		if e.TxID != 0 && outcome[e.TxID] != ClassCommit {
			continue // rolled back or abandoned
		}
		if failed.Load() {
			break
		}
		keys, barrier := replayKeys(e)
		pool.Submit(new(conflictsched.Task), conflictsched.Func(func() {
			if failed.Load() {
				return
			}
			// Only an entry without its Bound is parsed: a typed-nil
			// *Bound would read as a statement to execute.
			var st sqlparser.Statement
			if e.Bound != nil {
				st = e.Bound
			}
			if _, execErr := b.DirectExec(st, e.SQL); execErr != nil {
				recordFailure(e, execErr)
				return
			}
			done.Add(1)
		}), keys, barrier)
	}
	pool.Stop()
	errMu.Lock()
	err = failErr
	errMu.Unlock()
	if err != nil {
		return from, unresolved, int(done.Load()), err
	}
	return cut, unresolved, int(done.Load()), nil
}

// replayKeys converts an entry's conflict footprint into tracker keys:
// its table set plus a synthetic per-transaction key (entries of one
// transaction conflict with each other regardless of tables, matching
// Entry.ConflictsWith). The entry is a barrier when it was sequenced
// gate-exclusive or its footprint is unknown — no tables recorded, or
// V = 0.
func replayKeys(e *Entry) (keys []string, barrier bool) {
	if e.Global || e.V < FootprintVersion || len(e.Tables) == 0 {
		return nil, true
	}
	return conflictsched.KeysWithTx(e.Tables, e.TxID), false
}

func replayErr(e *Entry, err error) error {
	return fmt.Errorf("recovery: replay seq %d (%s): %w", e.Seq, e.Text(), err)
}
