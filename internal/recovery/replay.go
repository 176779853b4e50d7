package recovery

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cjdbc/internal/backend"
	"cjdbc/internal/conflictsched"
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

// Pass carries replay bookkeeping across the multiple passes of one
// re-integration: a long bulk pass outside the cluster write quiesce
// followed by short catch-up passes inside it. A transaction is applied
// all-or-nothing in the pass that first observes its commit, so a
// transaction spanning passes — its writes visible to the bulk pass, its
// commit logged only later — is still applied completely: the later pass
// re-reads the window from the original checkpoint and picks the whole
// transaction up. nil means nothing has been replayed yet.
type Pass struct {
	// Last is the frontier: auto-commit entries at or below it have been
	// applied (or held back in AutoDone's complement — see AutoDone). A
	// held-back entry caps Last just below itself, so the next pass
	// revisits it.
	Last uint64
	// TxDone records the committed transactions whose writes have been
	// applied by earlier passes.
	TxDone map[uint64]bool
	// AutoDone records auto-commit entries applied above Last: when a
	// held-back entry caps Last, later disjoint auto-commit entries that
	// did apply are tracked individually so the next pass neither skips
	// nor re-applies them.
	AutoDone map[uint64]bool
	// TxDead marks transactions the caller has proven can never demarcate
	// (unresolved in the log but inactive cluster-wide under the write
	// quiesce): they replay as rolled back and stop holding back their
	// conflict classes.
	TxDead map[uint64]bool
	// Deferred counts the replayable units (whole transactions or
	// auto-commit entries) the pass held back because an earlier
	// conflicting entry could not be applied yet. The caller must run
	// another pass before enabling the backend while it is non-zero.
	Deferred int
}

// ReplayPassHosted applies to b the committed writes recorded after seq that
// prev has not already applied: transactions in prev.TxDone and auto-commit
// entries covered by prev.Last/prev.AutoDone are skipped. It returns the
// accumulated bookkeeping for the next pass and the transactions that
// remain unresolved — write entries in the window with no commit or
// rollback logged yet. A caller re-integrating a backend must not enable it
// while an unresolved transaction is still active cluster-wide, nor while
// next.Deferred is non-zero: entries held back behind an unresolved
// transaction apply only in a later pass. On error the backend must stay
// disabled (see ReplayParallel).
//
// A non-nil hosted filter restricts the pass to the backend's hosted tables
// (RAIDb-2 partial replication): entries whose footprint the filter rejects
// are invisible — not applied, not counted unresolved, and without a stake
// in the pass's ordering decisions — exactly as they were never dispatched
// to the backend live.
func ReplayPassHosted(l Log, seq uint64, prev *Pass, b *backend.Backend, workers int, hosted HostFilter) (next *Pass, unresolved []uint64, applied int, err error) {
	if prev == nil {
		prev = &Pass{}
	}
	applied, next, unresolved, err = replayPass(l, seq, prev, b, workers, hosted)
	return next, unresolved, applied, err
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
// serialize against everything.
//
// workers <= 0 defaults to GOMAXPROCS; workers == 1 is the paper's
// sequential replay — one applier — and the reference the parallel path is
// tested against. On error the first failing entry (by
// Seq) is reported, every in-flight applier is drained before returning,
// and no entry that conflicts with the failed one has been applied out of
// order; entries of classes disjoint from the failure may or may not have
// applied, which is why the caller must keep the backend disabled on error.
func ReplayParallel(l Log, seq uint64, b *backend.Backend, workers int) (applied int, err error) {
	applied, _, _, err = replayPass(l, seq, &Pass{}, b, workers, nil)
	return applied, err
}

// decideDeferrals computes a pass's holdback set. A write of a transaction
// that is still unresolved (no demarcation in the log, not marked dead)
// cannot be applied this pass, yet later entries of the same conflict class
// may already be replayable — applying those now would invert the per-class
// Seq order once the transaction commits and a later pass applies its
// writes. So every replayable unit whose keys reach a held-back entry is
// deferred too: auto-commit entries individually, transactions as whole
// groups (a transaction applies all-or-nothing, so one conflicting write
// defers its writes on every table — the per-tx key chains them even when
// their tables are disjoint). Deferred units poison their own keys in turn.
// Decisions iterate to a fixpoint because a group deferral discovered at
// its later entry retroactively holds back the group's earlier entries and
// anything conflicting after them; the deferral set only grows, so the loop
// terminates.
func decideDeferrals(entries []Entry, hostedAt []bool, outcome map[uint64]EntryClass, prev *Pass) (deferTx, deferAuto map[uint64]bool) {
	deferTx = make(map[uint64]bool)
	deferAuto = make(map[uint64]bool)
	for {
		changed := false
		held := make(map[string]bool)
		heldBarrier := false
		poison := func(keys []string, barrier bool) {
			if barrier {
				heldBarrier = true
			}
			for _, k := range keys {
				held[k] = true
			}
		}
		conflicts := func(keys []string, barrier bool) bool {
			if heldBarrier {
				return true
			}
			if barrier {
				return len(held) > 0
			}
			for _, k := range keys {
				if held[k] {
					return true
				}
			}
			return false
		}
		for i := range entries {
			e := &entries[i]
			if e.Class != ClassWrite || !hostedAt[i] {
				continue
			}
			keys, barrier := replayKeys(e)
			if e.TxID != 0 {
				oc, ended := outcome[e.TxID]
				switch {
				case !ended && prev.TxDead[e.TxID]:
					continue // abandoned: replays as rolled back, holds nothing
				case !ended:
					poison(keys, barrier) // unresolved: not applicable this pass
					continue
				case oc == ClassRollback, prev.TxDone[e.TxID]:
					continue // never applies / already applied: no ordering stake
				}
				if deferTx[e.TxID] {
					poison(keys, barrier)
					continue
				}
				if conflicts(keys, barrier) {
					deferTx[e.TxID] = true
					changed = true
					poison(keys, barrier)
				}
				continue
			}
			if e.Seq <= prev.Last || prev.AutoDone[e.Seq] {
				continue
			}
			if deferAuto[e.Seq] {
				poison(keys, barrier)
				continue
			}
			if conflicts(keys, barrier) {
				deferAuto[e.Seq] = true
				changed = true
				poison(keys, barrier)
			}
		}
		if !changed {
			return deferTx, deferAuto
		}
	}
}

func replayPass(l Log, seq uint64, prev *Pass, b *backend.Backend, workers int, hosted HostFilter) (applied int, next *Pass, unresolved []uint64, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	entries, err := l.Since(seq)
	if err != nil {
		return 0, nil, nil, err
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
	// Hosted view: under partial replication the backend's replay stream is
	// the subsequence of entries whose footprint it hosts.
	hostedAt := make([]bool, len(entries))
	for i := range entries {
		hostedAt[i] = entryHosted(&entries[i], hosted)
	}

	// Bookkeeping for the next pass: the frontier and the transactions this
	// pass settles, plus whatever earlier passes settled. Hosted writes
	// without a demarcation yet stay unresolved (unless the caller marked
	// them dead); their transactions replay whole in a later pass, or never.
	last := prev.Last
	seenUnresolved := make(map[uint64]bool)
	for i := range entries {
		e := &entries[i]
		if e.Seq > last {
			last = e.Seq
		}
		if e.Class == ClassWrite && e.TxID != 0 && hostedAt[i] {
			if _, ended := outcome[e.TxID]; !ended && !prev.TxDead[e.TxID] && !seenUnresolved[e.TxID] {
				seenUnresolved[e.TxID] = true
				unresolved = append(unresolved, e.TxID)
			}
		}
	}

	deferTx, deferAuto := decideDeferrals(entries, hostedAt, outcome, prev)
	// A held-back auto-commit entry caps the frontier just below itself so
	// the next pass revisits it; autos applied above the cap go to AutoDone.
	for s := range deferAuto {
		if s <= last {
			last = s - 1
		}
	}

	replayable := func(i int, e *Entry) bool {
		if e.Class != ClassWrite || !hostedAt[i] {
			return false
		}
		if e.TxID == 0 {
			return e.Seq > prev.Last && !prev.AutoDone[e.Seq] && !deferAuto[e.Seq]
		}
		return outcome[e.TxID] == ClassCommit && !prev.TxDone[e.TxID] && !deferTx[e.TxID]
	}

	var autoApplied []uint64
	buildNext := func() *Pass {
		done := make(map[uint64]bool, len(prev.TxDone)+len(outcome))
		for tx := range prev.TxDone {
			done[tx] = true
		}
		for tx, oc := range outcome {
			if oc == ClassCommit && !deferTx[tx] {
				done[tx] = true
			}
		}
		autoDone := make(map[uint64]bool)
		for s := range prev.AutoDone {
			if s > last {
				autoDone[s] = true
			}
		}
		for _, s := range autoApplied {
			if s > last {
				autoDone[s] = true
			}
		}
		var dead map[uint64]bool
		if len(prev.TxDead) > 0 {
			dead = make(map[uint64]bool, len(prev.TxDead))
			for tx := range prev.TxDead {
				dead[tx] = true
			}
		}
		return &Pass{Last: last, TxDone: done, AutoDone: autoDone, TxDead: dead,
			Deferred: len(deferTx) + len(deferAuto)}
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
	for i := range entries {
		e := &entries[i]
		if !replayable(i, e) {
			continue
		}
		if failed.Load() {
			break
		}
		if e.TxID == 0 {
			autoApplied = append(autoApplied, e.Seq)
		}
		keys, barrier := replayKeys(e)
		pool.Submit(keys, barrier, func() {
			if failed.Load() {
				return
			}
			if _, execErr := b.DirectExec(nil, e.SQL); execErr != nil {
				recordFailure(e, execErr)
				return
			}
			done.Add(1)
		})
	}
	pool.Stop()
	errMu.Lock()
	err = failErr
	errMu.Unlock()
	if err != nil {
		return int(done.Load()), nil, unresolved, err
	}
	return int(done.Load()), buildNext(), unresolved, nil
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
	return fmt.Errorf("recovery: replay seq %d (%s): %w", e.Seq, e.SQL, err)
}
