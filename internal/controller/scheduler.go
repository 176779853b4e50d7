package controller

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// ResponsePolicy selects when a write (update, commit or abort) is
// acknowledged to the client (§2.4.4 early response): after the first
// backend, after a majority, or after all backends complete.
type ResponsePolicy int

// Response policies.
const (
	// ResponseAll waits for every involved backend (the default; fully
	// synchronous as §2.4.1 describes).
	ResponseAll ResponsePolicy = iota
	// ResponseFirst returns as soon as one backend has executed the
	// operation, offering the latency of the fastest backend.
	ResponseFirst
	// ResponseMajority returns once a majority of the involved backends
	// have executed the operation.
	ResponseMajority
)

// String names the policy.
func (p ResponsePolicy) String() string {
	switch p {
	case ResponseAll:
		return "all"
	case ResponseFirst:
		return "first"
	case ResponseMajority:
		return "majority"
	}
	return "unknown"
}

// Scheduler implements §2.4.1's ordering duty with conflict-class
// scheduling instead of a single total order: updates, commits and aborts
// are sequenced per conflict class — the set of tables a statement touches —
// so writes on disjoint tables flow concurrently while writes sharing a
// table, and everything global (DDL, unknown footprints), keep a strict
// relative order. The invariant replicas need is not "one global order" but
// "every pair of conflicting writes is enqueued to all backends in the same
// relative order"; writes on disjoint table sets commute, so their relative
// order is free. The scheduler also fills non-deterministic macros' slots
// and allocates transaction identifiers.
type Scheduler struct {
	// gate is the global ordering point: per-class lockers hold it shared,
	// global operations (DDL, unknown footprints, checkpoint quiesce — and
	// every write when parallelism is disabled) hold it exclusively.
	gate sync.RWMutex

	// classMu guards the class-lock table and the per-transaction write
	// footprints.
	classMu sync.Mutex
	classes map[string]*classLock
	idle    []*classLock // deleted class locks, reused by the next new class
	txFeet  map[uint64]*txFootprint

	// readers tracks in-flight reads: every read holds it shared for its
	// duration, and WaitReaders takes it exclusively as a barrier. Placement
	// changes use it after flipping routing away from a backend: once
	// WaitReaders returns, no read chosen under the old placement can still
	// be executing, so the stale copy is safe to drop.
	readers sync.RWMutex

	// serializeAll disables the parallel-transactions optimization
	// (§2.4.4): when set, reads and writes all serialize through the gate.
	serializeAll bool

	early ResponsePolicy

	txSeq  atomic.Uint64
	txBase uint64 // controller-unique prefix for distributed uniqueness

	rngMu sync.Mutex
	rng   *rand.Rand
}

// classLock is one table's write-sequencing lock, reference-counted so the
// table map does not grow without bound (temporary-table names churn); a
// deleted one is kept in idle for the next class.
type classLock struct {
	mu   sync.Mutex
	refs int
}

// txFootprint accumulates the tables a transaction has written, so its
// commit or abort orders against every class the transaction touched.
type txFootprint struct {
	tables map[string]bool
	global bool
}

// NewScheduler creates a scheduler. controllerID disambiguates transaction
// identifiers when several controllers host the same virtual database.
func NewScheduler(controllerID uint16, early ResponsePolicy, parallelTx bool) *Scheduler {
	return &Scheduler{
		classes:      make(map[string]*classLock),
		txFeet:       make(map[uint64]*txFootprint),
		serializeAll: !parallelTx,
		early:        early,
		txBase:       uint64(controllerID) << 48,
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// NextTxID allocates a cluster-unique transaction identifier. Identifiers
// are never zero (zero means auto-commit).
func (s *Scheduler) NextTxID() uint64 {
	return s.txBase | s.txSeq.Add(1)
}

// Policy returns the early-response policy.
func (s *Scheduler) Policy() ResponsePolicy { return s.early }

// FillSlots returns a write's owned vector: params with its macro slots
// filled (sqlparser.FillSlots), NOW() and CURRENT_DATE from one instant and
// each RAND() from one draw under the scheduler's lock.
func (s *Scheduler) FillSlots(slots []sqlparser.Slot, params []sqlval.Value) []sqlval.Value {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return sqlparser.FillSlots(slots, params, time.Now(), s.rng)
}

// WriteTicket is one held conflict-class critical section. Logging and
// enqueueing to every backend happen while it is held, which is what makes
// conflicting writes reach all backends in the same relative order; it is
// released before waiting on backend execution. It is a value: entering a
// class allocates nothing.
type WriteTicket struct {
	s      *Scheduler
	global bool
	names  []string
}

// LockClass enters the critical section of one conflict class. tables must
// be sorted and deduplicated (sqlparser.ConflictClass and the plan cache
// both provide that) and must not change until Unlock; the sorted
// acquisition order makes class lockers deadlock-free. global (or a
// scheduler with parallelism disabled) takes the whole gate exclusively,
// serializing against every class.
func (s *Scheduler) LockClass(tables []string, global bool) WriteTicket {
	if global || s.serializeAll {
		s.gate.Lock()
		return WriteTicket{s: s, global: true}
	}
	s.gate.RLock()
	var buf [4]*classLock
	locks := buf[:0]
	s.classMu.Lock()
	for _, name := range tables {
		cl := s.classes[name]
		if cl == nil {
			if n := len(s.idle); n > 0 {
				cl = s.idle[n-1]
				s.idle[n-1] = nil
				s.idle = s.idle[:n-1]
			} else {
				cl = &classLock{}
			}
			s.classes[name] = cl
		}
		cl.refs++
		locks = append(locks, cl)
	}
	s.classMu.Unlock()
	for _, cl := range locks {
		cl.mu.Lock()
	}
	return WriteTicket{s: s, names: tables}
}

// LockAllWrites quiesces every write class (checkpointing, backend
// re-integration). Identical to a global LockClass.
func (s *Scheduler) LockAllWrites() WriteTicket { return s.LockClass(nil, true) }

// Unlock leaves the conflict class's critical section. The class locks are
// found again by name: a held reference keeps each one in the map.
func (t WriteTicket) Unlock() {
	s := t.s
	if t.global {
		s.gate.Unlock()
		return
	}
	s.classMu.Lock()
	for i := len(t.names) - 1; i >= 0; i-- {
		cl := s.classes[t.names[i]]
		cl.mu.Unlock()
		cl.refs--
		if cl.refs == 0 {
			delete(s.classes, t.names[i])
			s.idle = append(s.idle, cl)
		}
	}
	s.classMu.Unlock()
	s.gate.RUnlock()
}

// NoteTxWrite accumulates a transaction's conflict footprint: the tables
// (or global-ness) of every write it issued, so that its commit or abort
// locks the same classes and orders against everything the transaction
// touched.
func (s *Scheduler) NoteTxWrite(txID uint64, tables []string, global bool) {
	if txID == 0 {
		return
	}
	s.classMu.Lock()
	defer s.classMu.Unlock()
	f := s.txFeet[txID]
	if f == nil {
		f = &txFootprint{tables: make(map[string]bool)}
		s.txFeet[txID] = f
	}
	if global {
		f.global = true
	}
	for _, t := range tables {
		f.tables[t] = true
	}
}

// PeekTxFootprint returns a transaction's accumulated conflict footprint
// (sorted) without clearing it. A transaction that never wrote has an
// empty, non-global footprint: its demarcation conflicts with nothing. The
// commit/abort path locks the footprint's classes and then clears it with
// ForgetTx.
func (s *Scheduler) PeekTxFootprint(txID uint64) (tables []string, global bool) {
	s.classMu.Lock()
	f := s.txFeet[txID]
	if f != nil {
		tables = make([]string, 0, len(f.tables))
		for t := range f.tables {
			tables = append(tables, t)
		}
		global = f.global
	}
	s.classMu.Unlock()
	sort.Strings(tables)
	return tables, global
}

// TxActive reports whether a transaction still has an unclaimed write
// footprint — it wrote at least once and its commit or abort has not yet
// passed the sequencing point. Backend re-integration uses it (under
// LockAllWrites, so no new demarcations can race in) to decide whether a
// transaction the backend abandoned at disable time is finished
// cluster-wide and therefore fully present in the recovery log.
func (s *Scheduler) TxActive(txID uint64) bool {
	s.classMu.Lock()
	_, ok := s.txFeet[txID]
	s.classMu.Unlock()
	return ok
}

// AnyTxActive reports whether any transaction holds an unclaimed write
// footprint. Checkpointing uses it to find a moment no write transaction
// spans: a dump taken at such a checkpoint contains exactly the effects of
// the log entries at or below the marker.
func (s *Scheduler) AnyTxActive() bool {
	s.classMu.Lock()
	n := len(s.txFeet)
	s.classMu.Unlock()
	return n > 0
}

// ForgetTx drops a transaction's footprint without locking anything, for
// abort paths that bypass SQL demarcation.
func (s *Scheduler) ForgetTx(txID uint64) {
	s.classMu.Lock()
	delete(s.txFeet, txID)
	s.classMu.Unlock()
}

// GateRead blocks reads while parallel transactions are disabled, and is
// otherwise free. Static-placement vdbs use it instead of BeginRead: with
// no placement moves, no copy can be dropped out from under a routed read,
// so the readers barrier is unnecessary overhead there.
func (s *Scheduler) GateRead() {
	if s.serializeAll {
		s.gate.Lock()
	}
}

// UngateRead matches GateRead.
func (s *Scheduler) UngateRead() {
	if s.serializeAll {
		s.gate.Unlock()
	}
}

// BeginRead marks a read in flight (see readers); it additionally blocks
// reads when parallel transactions are disabled.
func (s *Scheduler) BeginRead() {
	s.readers.RLock()
	s.GateRead()
}

// EndRead matches BeginRead.
func (s *Scheduler) EndRead() {
	s.UngateRead()
	s.readers.RUnlock()
}

// WaitReaders blocks until every read that began before the call has
// finished. New reads may start as soon as it returns: the barrier orders
// "reads routed under the old placement" before "drop the copy", nothing
// more.
func (s *Scheduler) WaitReaders() {
	s.readers.Lock()
	s.readers.Unlock() // the empty critical section is the barrier
}

// WaitOutcomes applies the early-response policy to a cluster write's
// shared outcome channel: it blocks until enough backends answered and
// returns the first successful result; if every backend failed, it returns
// the first error. The channel is buffered for one outcome per backend, so
// stragglers complete without a drain goroutine — their failures still
// disable backends through the backends' own failure callbacks.
func (s *Scheduler) WaitOutcomes(policy ResponsePolicy, outs backend.Outcomes) (*backend.Result, error) {
	n := outs.N
	if n == 0 {
		return nil, ErrNoWriteTarget
	}
	need := n
	switch policy {
	case ResponseFirst:
		need = 1
	case ResponseMajority:
		need = n/2 + 1
	}

	var firstRes *backend.Result
	var firstErr error
	successes := 0
	for received := 0; received < n; received++ {
		o := <-outs.C
		if o.Err == nil {
			successes++
			if firstRes == nil {
				firstRes = o.Res
			}
		} else if firstErr == nil {
			firstErr = o.Err
		}
		if successes >= need {
			return firstRes, nil
		}
	}
	if successes > 0 {
		// Partial success: the failing backends have been disabled (no
		// 2PC, §2.4.1); the operation stands on the survivors.
		return firstRes, nil
	}
	return nil, firstErr
}
