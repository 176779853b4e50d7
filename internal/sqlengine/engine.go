package sqlengine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Errors reported by the engine. All carry the ErrSemantic sentinel
// (errors.Is-able): they fail identically on every replica, so the
// clustering middleware never treats them as backend faults.
var (
	// ErrLockTimeout is returned when a statement cannot acquire its table
	// locks within the engine's lock timeout; the paper's backends would
	// report a deadlock or lock-wait timeout the same way.
	ErrLockTimeout = errf("lock wait timeout (possible deadlock)")
	// ErrNoTransaction is returned by COMMIT/ROLLBACK outside a transaction.
	ErrNoTransaction = errf("no transaction in progress")
	// ErrTxInProgress is returned by BEGIN inside a transaction.
	ErrTxInProgress = errf("transaction already in progress")
	// ErrClosed is returned when the engine has been shut down.
	ErrClosed = errf("closed")
)

// TableNotFoundError reports a reference to a missing table.
type TableNotFoundError struct{ Table string }

// Error implements the error interface.
func (e *TableNotFoundError) Error() string {
	return fmt.Sprintf("engine: table %q does not exist", e.Table)
}

// Engine is one database backend instance. It is safe for concurrent use by
// multiple sessions.
//
// Concurrency model: mu is a sharded read/write lock over the catalog;
// each table additionally carries its own storage latch (table.store).
// Reads (SELECT and the metadata accessors) hold one mu shard shared and
// nothing else: they resolve rows through MVCC version chains against a
// snapshot epoch pinned at statement (auto-commit) or transaction start, so
// a reader never waits for an in-flight write. DML holds one mu shard
// shared plus its target table's latch exclusive, so writes to disjoint
// tables execute concurrently on one backend while writes to the same
// table are serialized by the lock manager's ticket FIFO. Commit stamps the
// transaction's versions with a fresh epoch from the global clock before
// releasing its locks. Undo replay pops uncommitted versions under the
// table latch; only DDL (and undo of DDL) holds every mu shard exclusively
// and serializes against everything. Stats counters are sharded atomics so
// the read path never takes the exclusive lock and sessions do not contend
// on one counter.
type Engine struct {
	name string

	mu     brwMutex // guards catalog and all table storage
	tables map[string]*table
	closed atomic.Bool
	// catalogEpoch numbers the catalog's versions: every DDL and every DDL
	// undo bumps it under the exclusive lock, and a statement's binding
	// (bind.go) is valid only at the epoch it was made at. Readers load it
	// under the shared lock.
	catalogEpoch uint64

	locks       *lockManager
	lockTimeout time.Duration

	// clock is the global commit-epoch clock; writerSeq hands each session
	// a unique uncommitted-version stamp; pins registers sessions for the
	// GC watermark; gcDebt accrues superseded versions until it reaches
	// gcEvery (gcThreshold; in-package tests set it before use) and a step
	// drains the purge lists (gcBusy serializes steps).
	clock     epochClock
	writerSeq atomic.Uint64
	pins      []pinShard
	gcDebt    atomic.Int64
	gcEvery   int64
	gcBusy    atomic.Bool

	// noIndexPlan forces full scans in the access planner and in join
	// stages, and disables ordered-index ORDER BY elision. Tests toggle it
	// (atomically, under concurrent load) to prove index-planned execution
	// equivalent to scanning.
	noIndexPlan atomic.Bool

	sessionSeq atomic.Uint32 // round-robins sessions over lock/stat shards
	stats      []statShard
}

// Stats counts engine work, exported for monitoring.
type Stats struct {
	Statements   int64
	Reads        int64
	Writes       int64
	Transactions int64
	Aborts       int64
}

// Option configures an Engine.
type Option func(*Engine)

// WithLockTimeout sets how long a statement waits for table locks before
// failing with ErrLockTimeout. Deadlocks resolve through this timeout.
func WithLockTimeout(d time.Duration) Option {
	return func(e *Engine) { e.lockTimeout = d }
}

// New creates an empty database engine with the given name.
func New(name string, opts ...Option) *Engine {
	e := &Engine{
		name:        name,
		mu:          newBRWMutex(),
		tables:      make(map[string]*table),
		lockTimeout: 2 * time.Second,
		gcEvery:     gcThreshold,
	}
	e.stats = make([]statShard, len(e.mu.shards))
	e.pins = make([]pinShard, len(e.mu.shards))
	e.locks = newLockManager()
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name returns the engine's name.
func (e *Engine) Name() string { return e.name }

// rshard picks a lock shard for engine-level (sessionless) readers like the
// metadata accessors, rotating so concurrent calls spread over shards
// instead of piling onto one reader count.
func (e *Engine) rshard() uint32 { return e.sessionSeq.Add(1) }

// StatsSnapshot returns a copy of the engine counters.
func (e *Engine) StatsSnapshot() Stats {
	var out Stats
	for i := range e.stats {
		sh := &e.stats[i]
		out.Statements += sh.statements.Load()
		out.Reads += sh.reads.Load()
		out.Writes += sh.writes.Load()
		out.Transactions += sh.transactions.Load()
		out.Aborts += sh.aborts.Load()
	}
	return out
}

// Close shuts the engine down; subsequent sessions fail.
func (e *Engine) Close() { e.closed.Store(true) }

// TableNames returns the sorted names of the catalog's tables.
func (e *Engine) TableNames() []string {
	sh := e.rshard()
	e.mu.RLock(sh)
	defer e.mu.RUnlock(sh)
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RowCount returns the number of live rows in a table, for tests and dumps.
func (e *Engine) RowCount(name string) (int, error) {
	sh := e.rshard()
	e.mu.RLock(sh)
	defer e.mu.RUnlock(sh)
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return 0, &TableNotFoundError{Table: name}
	}
	// Latch-free snapshot count at the newest published epoch.
	rv := readView{ep: e.clock.published.Load()}
	n := 0
	t.scanSnap(rv, func([]sqlval.Value) bool { n++; return true })
	return n, nil
}

// SnapshotTable returns the schema and all rows of a table in insertion
// order. The recovery dump machinery uses it; rows are deep copies.
func (e *Engine) SnapshotTable(name string) (*Schema, [][]sqlval.Value, error) {
	sh := e.rshard()
	e.mu.RLock(sh)
	defer e.mu.RUnlock(sh)
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, nil, &TableNotFoundError{Table: name}
	}
	cp := *t.schema
	cp.Columns = append([]Column(nil), t.schema.Columns...)
	// Latch-free snapshot scan at the newest published epoch: the dump is a
	// consistent committed view even while writers are mid-statement.
	rv := readView{ep: e.clock.published.Load()}
	var rows [][]sqlval.Value
	t.scanSnap(rv, func(row []sqlval.Value) bool {
		rows = append(rows, slices.Clone(row))
		return true
	})
	return &cp, rows, nil
}

// Indexes returns the explicitly created indexes of a table, sorted by name,
// as the statements that create them.
func (e *Engine) Indexes(name string) ([]*sqlparser.CreateIndex, error) {
	sh := e.rshard()
	e.mu.RLock(sh)
	defer e.mu.RUnlock(sh)
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, &TableNotFoundError{Table: name}
	}
	var out []*sqlparser.CreateIndex
	for n, ix := range t.indexes {
		if n == "__pk" {
			continue
		}
		ci := &sqlparser.CreateIndex{Name: n, Table: t.schema.Name, Unique: ix.unique}
		for _, c := range ix.columns {
			ci.Columns = append(ci.Columns, t.schema.Columns[c].Name)
		}
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// PendingTickets returns the number of queued (ungranted) lock tickets
// across all tables. A quiesced engine — no statement in flight, every
// session reset or closed — must report zero: a nonzero count at quiesce
// means a ticket FIFO head is stranded behind a session that will never
// release it, the failure mode the crash-consistent disable path exists to
// prevent. The chaos harness asserts on it.
func (e *Engine) PendingTickets() int {
	e.locks.mu.Lock()
	defer e.locks.mu.Unlock()
	n := 0
	for _, l := range e.locks.locks {
		n += len(l.queue)
	}
	return n
}

// HeldLocks returns the number of tables whose lock is currently granted to
// some session. Like PendingTickets it must be zero at quiesce; a leftover
// holder is a leaked session.
func (e *Engine) HeldLocks() int {
	e.locks.mu.Lock()
	defer e.locks.mu.Unlock()
	n := 0
	for _, l := range e.locks.locks {
		if l.writer != nil {
			n++
		}
	}
	return n
}

// lockManager grants table-granularity exclusive locks with
// timeout-based deadlock resolution (strict two-phase locking: locks are
// held until commit or rollback). Every exclusive acquisition flows through
// a per-table FIFO of reservation tickets: the clustering middleware issues
// a ticket at enqueue time (in cluster submission order) for transactional
// and auto-commit writes alike, and a standalone engine user's exclusive
// acquisition issues its ticket at execution time, at the tail of the same
// queue. Tickets are granted strictly in issue order, which makes the
// conflict-resolution order on every replica follow the cluster's write
// submission order — the single ordering authority §2.4.1's total write
// order needs. A ticket may carry a grant notifier, so a scheduler can park
// the work bound to the ticket until the engine grants it instead of
// blocking a thread on the wait.
type lockManager struct {
	mu    sync.Mutex
	locks map[string]*tableLock
	// free holds idle tableLocks for reuse: an idle lock leaves locks (table
	// names churn, so the map must not keep them) but its queue's backing
	// array is kept, so a statement does not allocate a lock per table.
	free []*tableLock
}

// TicketNotifier is told about a lock ticket exactly once, outside the lock
// manager's mutex: when the ticket is granted, or when it leaves the queue
// ungranted (dropped unconsumed, or its lock wait timed out or was killed),
// so a parked owner is never stranded waiting for a grant that cannot come.
type TicketNotifier interface {
	TicketGranted()
}

// lockRequest is one queued lock ticket.
type lockRequest struct {
	s       *Session
	tbl     string
	granted atomic.Bool
	// ready is made, under the lock-manager mutex, only when a waiter blocks
	// on the ticket; grantLocked closes it.
	ready  chan struct{}
	notify TicketNotifier
}

type tableLock struct {
	writer *Session
	queue  []*lockRequest
}

func newLockManager() *lockManager {
	return &lockManager{locks: make(map[string]*tableLock)}
}

func (lm *lockManager) get(tbl string) *tableLock {
	l, ok := lm.locks[tbl]
	if !ok {
		if n := len(lm.free); n > 0 {
			l = lm.free[n-1]
			lm.free[n-1] = nil
			lm.free = lm.free[:n-1]
		} else {
			l = &tableLock{}
		}
		lm.locks[tbl] = l
	}
	return l
}

// recycleIfIdle moves a lock nobody holds or waits for from locks to free.
func (lm *lockManager) recycleIfIdle(tbl string, l *tableLock) {
	if l.writer == nil && len(l.queue) == 0 {
		delete(lm.locks, tbl)
		lm.free = append(lm.free, l)
	}
}

// grantLocked hands the table lock to req's session and signals a blocked
// waiter; the caller collects req's notifier.
func (l *tableLock) grantLocked(req *lockRequest) {
	l.writer = req.s
	req.s.held[req.tbl] = true
	req.s.lockState.Store(true)
	req.granted.Store(true)
	if req.ready != nil {
		close(req.ready)
	}
}

// collect appends req's notifier, if any, to fire. Notifiers run after the
// lock-manager mutex is released (fireAll); fire is returned rather than
// passed by pointer so a caller's stack buffer stays on the stack.
func (req *lockRequest) collect(fire []TicketNotifier) []TicketNotifier {
	if req.notify != nil {
		fire = append(fire, req.notify)
	}
	return fire
}

// pumpLocked grants queued requests in FIFO order while the head is
// compatible (the lock is free or already its session's), collecting their
// notifiers.
func (l *tableLock) pumpLocked(tbl string, fire []TicketNotifier) []TicketNotifier {
	for len(l.queue) > 0 {
		head := l.queue[0]
		if l.writer != nil && l.writer != head.s {
			break
		}
		// slices.Delete clears the vacated tail slot: a kept lock's array
		// must not pin a granted request (and the write bound to it).
		l.queue = slices.Delete(l.queue, 0, 1)
		l.grantLocked(head)
		fire = l.grantHolderLocked(head.s, tbl, head.collect(fire))
	}
	return fire
}

// grantHolderLocked grants the new holder's reservations queued further
// back. They were issued before the session held the lock, so issueLocked
// could not let them jump; left in place they would wait behind requests
// that wait on the holder, until the lock timeout. A replica where the
// session held the lock at issue grants them at once, so granting them here
// keeps every replica's grant order the same.
func (l *tableLock) grantHolderLocked(s *Session, tbl string, fire []TicketNotifier) []TicketNotifier {
	for _, req := range s.reserved {
		if req.tbl != tbl || req.granted.Load() {
			continue
		}
		l.dequeueLocked(req)
		l.grantLocked(req)
		fire = req.collect(fire)
	}
	return fire
}

// dequeueLocked removes req from the queue, clearing the vacated slot.
func (l *tableLock) dequeueLocked(req *lockRequest) {
	if i := slices.Index(l.queue, req); i >= 0 {
		l.queue = slices.Delete(l.queue, i, i+1)
	}
}

// issueLocked issues a ticket for s at the tail of the table's queue,
// granting it at once when the table is free and nobody is queued ahead, or
// when s already holds the lock (re-entrant requests may jump the queue: the
// holder cannot wait behind requests blocked on it). A synchronous grant is
// not notified here; the caller sees it in req.granted.
func (lm *lockManager) issueLocked(s *Session, tbl string, notify TicketNotifier) *lockRequest {
	l := lm.get(tbl)
	req := &lockRequest{s: s, tbl: tbl, notify: notify}
	if l.writer == s || (l.writer == nil && len(l.queue) == 0) {
		l.grantLocked(req)
	} else {
		l.queue = append(l.queue, req)
	}
	return req
}

// fireAll invokes collected notifiers; callers run it after unlocking the
// lock-manager mutex.
func fireAll(fire []TicketNotifier) {
	for _, n := range fire {
		n.TicketGranted()
	}
}

// reserve appends an exclusive lock ticket for s to the table's FIFO queue
// without blocking, granting immediately when possible. The cluster's
// scheduler calls this at dispatch time, in cluster submission order, so
// every replica queues conflicting writes — transactional and auto-commit —
// identically and grants them in the same order; without this, two
// conflicting writes can take the same lock in opposite orders on two
// replicas and diverge or deadlock the cluster (§2.4.1's "updates are sent
// to all backends in the same order"). notify, when non-nil, is told once
// the ticket is granted (possibly synchronously, before reserve returns) or
// dropped.
func (lm *lockManager) reserve(s *Session, tbl string, notify TicketNotifier) {
	lm.mu.Lock()
	req := lm.issueLocked(s, tbl, notify)
	s.reserved = append(s.reserved, req)
	s.lockState.Store(true)
	now := req.granted.Load()
	lm.mu.Unlock()
	if now && notify != nil {
		notify.TicketGranted()
	}
}

// takeReservation pops the oldest unconsumed reservation of s on tbl.
func (lm *lockManager) takeReservation(s *Session, tbl string) *lockRequest {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for i, req := range s.reserved {
		if req.tbl == tbl {
			s.reserved = slices.Delete(s.reserved, i, i+1)
			return req
		}
	}
	return nil
}

// cancelReservations drops every unconsumed reservation of s on tbl (used
// for temporary tables, which are session-private and never lock).
func (lm *lockManager) cancelReservations(s *Session, tbl string) {
	var buf [4]TicketNotifier
	fire := buf[:0]
	lm.mu.Lock()
	fire = lm.dropReservationsLocked(s, tbl, fire)
	lm.mu.Unlock()
	fireAll(fire)
}

// dropReservationsLocked drops the unconsumed reservations of s on tbl, or
// on every table when tbl is "". Queued ones are abandoned first, then their
// tables pumped, so none of the dropped tickets is granted on the way out.
func (lm *lockManager) dropReservationsLocked(s *Session, tbl string, fire []TicketNotifier) []TicketNotifier {
	n := 0
	for i, req := range s.reserved {
		if tbl != "" && req.tbl != tbl {
			s.reserved[n], s.reserved[i] = req, s.reserved[n]
			n++
		}
	}
	dropped := s.reserved[n:]
	s.reserved = s.reserved[:n]
	for _, req := range dropped {
		if l := lm.locks[req.tbl]; l != nil && !req.granted.Load() {
			// An already granted one is released via releaseAll.
			l.dequeueLocked(req)
			fire = req.collect(fire)
		}
	}
	for _, req := range dropped {
		if l := lm.locks[req.tbl]; l != nil {
			fire = l.pumpLocked(req.tbl, fire)
			lm.recycleIfIdle(req.tbl, l)
		}
	}
	clear(dropped)
	return fire
}

// waitReservation blocks on a ticket until granted, the deadline, or the
// session being killed (a killed session must not sit in a lock wait: the
// disable path needs its worker back to run the teardown rollback).
func (lm *lockManager) waitReservation(req *lockRequest, deadline time.Time) error {
	if req.granted.Load() {
		return nil
	}
	lm.mu.Lock()
	if req.granted.Load() {
		lm.mu.Unlock()
		return nil
	}
	if req.ready == nil {
		req.ready = make(chan struct{})
	}
	ready := req.ready
	lm.mu.Unlock()
	failErr := ErrLockTimeout
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-ready:
		return nil
	case <-timer.C:
	case <-req.s.killCh:
		failErr = ErrKilled
	}
	var buf [4]TicketNotifier
	fire := buf[:0]
	lm.mu.Lock()
	if req.granted.Load() {
		lm.mu.Unlock()
		return nil
	}
	if l := lm.locks[req.tbl]; l != nil {
		// Abandoned: its notifier still runs, so a parked owner is not
		// stranded waiting for a grant that can no longer come.
		l.dequeueLocked(req)
		fire = l.pumpLocked(req.tbl, req.collect(fire))
		lm.recycleIfIdle(req.tbl, l)
	}
	lm.mu.Unlock()
	fireAll(fire)
	return failErr
}

// issueNow issues an exclusive ticket at the tail of the table's queue for
// immediate consumption — the execution-time form of reserve, used by
// statements that carry no enqueue-time ticket (standalone engine use).
// Together with reserve it makes the ticket FIFO the single path every
// exclusive table-lock grant flows through.
func (lm *lockManager) issueNow(s *Session, tbl string) *lockRequest {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.issueLocked(s, tbl, nil)
}

// releaseAll drops every lock the session holds, purges its unconsumed
// reservations, and grants waiters.
func (lm *lockManager) releaseAll(s *Session) {
	if !s.lockState.Load() {
		return
	}
	var buf [4]TicketNotifier
	fire := buf[:0]
	lm.mu.Lock()
	fire = lm.dropReservationsLocked(s, "", fire)
	for tbl := range s.held {
		l := lm.locks[tbl]
		if l == nil {
			continue
		}
		if l.writer == s {
			l.writer = nil
		}
		fire = l.pumpLocked(tbl, fire)
		lm.recycleIfIdle(tbl, l)
	}
	clear(s.held)
	s.lockState.Store(false)
	lm.mu.Unlock()
	fireAll(fire)
}

// undoOp is one entry of a transaction's undo log. DML undo ('i'/'d'/'u')
// carries no row image: the pre-statement state lives in the row's version
// chain, and undo pops the session's own uncommitted version off the chain
// head (newest first, matching the log's LIFO replay).
type undoOp struct {
	kind    uint8 // 'i' undo-insert, 'd' undo-delete, 'u' undo-update, 'c' undo-create, 'r' undo-drop, 'x' undo-create-index, 'a' autoInc restore
	table   string
	ch      *rowChain // the row DML undo pops
	tbl     *table    // for undo of DROP TABLE / CREATE TABLE
	index   string
	autoInc int64
}

// keepScratch bounds the capacity of the lists a session keeps between
// statements (undo, dirty and execSelect's working lists); a bulk
// statement's longer list is dropped.
const keepScratch = 64

// truncated empties a per-statement list for reuse, clearing every entry so
// a finished statement keeps nothing it referenced alive.
func truncated[T any](list []T) []T {
	if cap(list) > keepScratch {
		return nil
	}
	clear(list)
	return list[:0]
}

// grown is an empty list, as truncated leaves one, with room for n entries:
// list's own storage when that has the room, a new list otherwise.
func grown[T any](list []T, n int) []T {
	if cap(list) < n {
		return make([]T, 0, n)
	}
	return list[:0]
}

// Session is one client connection to the engine. Sessions are not safe for
// concurrent use; the connection manager hands each client its own.
type Session struct {
	engine *Engine
	// shard selects the session's read-lock and stats shard; sessions are
	// assigned round-robin so concurrent readers spread across shards.
	shard uint32

	inTx bool
	undo []undoOp

	// params is the parameter vector of the statement executing now (a
	// sqlparser.Bound's), read by its placeholders; nil between statements.
	params []sqlval.Value

	// selRows and selOut are execSelect's working lists — the WHERE
	// survivors and the projected rows — which die once the result is
	// built. A session runs one SELECT at a time, so one pair serves every
	// statement; each is cleared after use and kept only while truncated
	// keeps it. No result references them.
	selRows [][]sqlval.Value
	selOut  []outRow

	// stamp marks this session's uncommitted row versions
	// (uncommittedBit|writerID); commit re-stamps them with a commit epoch.
	stamp uint64
	// pin holds the session's snapshot epoch + 1 while a statement (auto-
	// commit) or transaction is reading; 0 means unpinned. The GC watermark
	// reads it from other goroutines.
	pin atomic.Uint64
	// dirty collects the versions the current statement/transaction pushed,
	// for commit-time epoch stamping.
	dirty []*rowVersion

	// held and reserved are guarded by the engine lock manager's mutex:
	// reservations are placed by the dispatcher goroutine while statements
	// execute on a worker goroutine.
	held     map[string]bool
	reserved []*lockRequest // oldest first
	// lockState is true while the session may hold locks or queued
	// reservations (set under the lock manager's mutex). The statement-end
	// release paths skip the global lock-manager mutex when it is false —
	// the common case for reads, which take no table locks — so concurrent
	// readers do not serialize on that mutex either.
	lockState atomic.Bool

	// temp holds the session-local temporary tables as an immutable map
	// behind an atomic pointer. Mutations happen only on the goroutine
	// executing the session's statements and swap in a fresh copy; the
	// dispatcher goroutine reads it concurrently (ReserveWriteLockNotify
	// checks the temp namespace while a prior statement may still be
	// creating a temporary table), so a plain map would race.
	temp atomic.Pointer[map[string]*table]

	// killed/killCh implement Session.Kill: killed flips exactly once and
	// killCh closes with it, so in-flight lock waits can select on it.
	killed atomic.Bool
	killCh chan struct{}

	closed bool

	// like and needle are the LIKE matchers of the statement executing now
	// when a pattern is a parameter, and their folded needles
	// (Session.likes); reused, and cleared after use.
	like   []likeMatcher
	needle []byte
}

// NewSession opens a session on the engine.
func (e *Engine) NewSession() *Session {
	s := &Session{
		engine: e,
		shard:  e.sessionSeq.Add(1),
		stamp:  uncommittedBit | e.writerSeq.Add(1),
		held:   make(map[string]bool),
		killCh: make(chan struct{}),
	}
	s.tempClear()
	e.registerSession(s)
	return s
}

// tempGet looks a name up in the session's temporary-table namespace. Safe
// from any goroutine (single atomic load of the immutable map).
func (s *Session) tempGet(name string) (*table, bool) {
	t, ok := (*s.temp.Load())[name]
	return t, ok
}

// tempSet publishes a temporary table. Owner goroutine only: copies the
// current map and swaps it in.
func (s *Session) tempSet(name string, t *table) {
	old := *s.temp.Load()
	m := make(map[string]*table, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = t
	s.temp.Store(&m)
}

// tempDelete removes a temporary table. Owner goroutine only.
func (s *Session) tempDelete(name string) {
	old := *s.temp.Load()
	if _, ok := old[name]; !ok {
		return
	}
	m := make(map[string]*table, len(old))
	for k, v := range old {
		if k != name {
			m[k] = v
		}
	}
	s.temp.Store(&m)
}

// tempClear drops the whole temporary namespace. Owner goroutine only.
func (s *Session) tempClear() {
	if p := s.temp.Load(); p != nil && len(*p) == 0 {
		return
	}
	m := make(map[string]*table)
	s.temp.Store(&m)
}

// statShard returns the session's slice of the engine counters.
func (s *Session) statShard() *statShard {
	return &s.engine.stats[s.shard&s.engine.mu.mask]
}

// ReserveWriteLockNotify queues an exclusive lock ticket for a table without
// blocking. The clustering middleware calls it at dispatch time, in cluster
// submission order, so that conflicting writes are granted in the same
// order on every replica. Temporary tables are session-private and are not
// reserved. notify (when non-nil) is told exactly once, as soon as the
// ticket is granted — possibly synchronously, before this call returns — or
// when the ticket leaves the queue ungranted (dropped unconsumed, or its lock
// wait timed out or was killed). A scheduler uses it to park the write bound
// to this ticket until the engine reaches it in the FIFO, instead of
// blocking a worker on the wait.
func (s *Session) ReserveWriteLockNotify(table string, notify TicketNotifier) {
	table = strings.ToLower(table)
	if _, isTemp := s.tempGet(table); isTemp {
		if notify != nil {
			notify.TicketGranted()
		}
		return
	}
	s.engine.locks.reserve(s, table, notify)
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.inTx }

// Begin starts an explicit transaction.
func (s *Session) Begin() error {
	if s.closed {
		return ErrClosed
	}
	if s.inTx {
		return ErrTxInProgress
	}
	s.inTx = true
	s.statShard().transactions.Add(1)
	// Pin the transaction's snapshot now: every read in the transaction sees
	// one consistent epoch (plus the session's own writes).
	_ = s.snapshotEpoch()
	return nil
}

// Commit makes the transaction's effects durable and releases its locks.
// The transaction's versions are stamped with a fresh commit epoch and
// published before any lock releases, so the next ticket holder — and every
// snapshot pinned after it — observes the commit.
func (s *Session) Commit() error {
	if s.killed.Load() {
		// A killed transaction must not publish: the cluster-side disable
		// already counted it dead. Its undo stays intact for the teardown
		// rollback (or Close) to apply.
		return ErrKilled
	}
	if !s.inTx {
		return ErrNoTransaction
	}
	s.inTx = false
	n := len(s.undo)
	s.commitVersions()
	s.undo = truncated(s.undo)
	s.unpin()
	s.engine.locks.releaseAll(s)
	s.engine.noteGarbage(n)
	return nil
}

// Rollback undoes the transaction's effects and releases its locks.
func (s *Session) Rollback() error {
	if !s.inTx {
		return ErrNoTransaction
	}
	s.inTx = false
	n := len(s.undo)
	s.applyUndo()
	s.unpin()
	s.engine.locks.releaseAll(s)
	s.statShard().aborts.Add(1)
	s.engine.noteGarbage(n)
	return nil
}

// applyUndo reverses the undo log (newest first). DML-only logs — the
// common case — replay under the catalog's shared lock plus each target
// table's latch: undoing insert/update/delete pops the session's own
// uncommitted version off the row's chain head (the versions are invisible
// to every other session, so reverting them needs no engine-exclusive
// lock). A log containing DDL falls back to the engine-exclusive path,
// since it rewrites the catalog itself.
func (s *Session) applyUndo() {
	e := s.engine
	ddl := false
	for i := range s.undo {
		switch s.undo[i].kind {
		case 'c', 'r', 'x':
			ddl = true
		}
	}
	if ddl {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.catalogEpoch++
	} else {
		e.mu.RLock(s.shard)
		defer e.mu.RUnlock(s.shard)
	}
	var held *table // a run of pops on one table drops refs once, at its end
	release := func() {
		if held != nil {
			held.dropRefs()
			held.store.Unlock()
			held = nil
		}
	}
	for i := len(s.undo) - 1; i >= 0; i-- {
		op := s.undo[i]
		if op.kind != 'i' && op.kind != 'd' && op.kind != 'u' {
			release()
		}
		switch op.kind {
		case 'i', 'd', 'u': // pop the session's uncommitted version
			if t := s.resolveLocked(op.table); t != nil {
				if t != held {
					release()
					t.store.Lock()
					held = t
				}
				t.popVersion(op.ch, s.stamp)
			}
		case 'c': // undo create table: drop it
			if t, ok := s.tempGet(op.table); ok && op.tbl != nil && t == op.tbl {
				s.tempDelete(op.table)
			} else {
				delete(e.tables, op.table)
			}
		case 'r': // undo drop table: restore it
			e.tables[op.table] = op.tbl
		case 'x': // undo create index
			if t := s.resolveLocked(op.table); t != nil {
				t.idxMu.Lock()
				delete(t.indexes, op.index)
				t.idxMu.Unlock()
			}
		case 'a': // restore auto-increment counter
			if t := s.resolveLocked(op.table); t != nil {
				t.store.Lock()
				t.autoInc = op.autoInc
				t.store.Unlock()
			}
		}
	}
	release()
	s.undo = truncated(s.undo)
	s.dirty = truncated(s.dirty)
}

// resolveLocked finds a table by name, checking the session's temporary
// namespace first. Caller holds e.mu (shared suffices: catalog writers hold
// it exclusively).
func (s *Session) resolveLocked(name string) *table {
	if t, ok := s.tempGet(name); ok {
		return t
	}
	return s.engine.tables[name]
}

// Kill marks the session dead from another goroutine: the one Session
// method that is safe to call concurrently with a statement executing on
// the session's own goroutine. An in-flight lock wait aborts with
// ErrKilled, and every subsequent statement or Commit fails with ErrKilled,
// but Kill itself releases nothing — Rollback, Reset and Close still work
// on a killed session and remain the paths that undo its writes and release
// its locks and tickets, on the goroutine that owns the session. The
// backend's crash-consistent disable uses this pair: Kill to unblock the
// transaction worker wherever it is parked, then a rollback on that worker
// to tear the transaction down.
func (s *Session) Kill() {
	if s.killed.CompareAndSwap(false, true) {
		close(s.killCh)
	}
}

// Killed reports whether Kill was called.
func (s *Session) Killed() bool { return s.killed.Load() }

// Reset returns the session to its pristine just-opened state without
// closing it: any open transaction rolls back, locks and unconsumed
// reservations release, the snapshot pin drops and temporary tables are
// discarded. The backend's dedicated-session free-list recycles auto-commit
// writer sessions through it instead of paying open/close per write.
func (s *Session) Reset() {
	if s.closed {
		return
	}
	if s.inTx {
		_ = s.Rollback()
	}
	s.unpin()
	s.engine.locks.releaseAll(s)
	s.tempClear()
	s.undo = truncated(s.undo)
	s.dirty = truncated(s.dirty)
}

// Close rolls back any open transaction and drops temporary tables. Closing
// also releases the session's snapshot pin and, when superseded versions
// have accrued, runs a GC sweep — a draining reader may have been the pin
// holding the watermark back.
func (s *Session) Close() {
	if s.closed {
		return
	}
	if s.inTx {
		_ = s.Rollback()
	}
	s.unpin()
	s.engine.locks.releaseAll(s)
	s.tempClear()
	s.closed = true
	s.engine.deregisterSession(s)
	if s.engine.gcDebt.Load() > 0 {
		s.engine.GC()
	}
}

// lockDeadline computes the lock wait deadline for one statement.
func (s *Session) lockDeadline() time.Time {
	return time.Now().Add(s.engine.lockTimeout)
}

// lockTable acquires a table lock for the current statement. Exclusive
// acquisition always goes through the ticket FIFO: it consumes the oldest
// pending reservation when the dispatcher issued one at enqueue time, and
// issues a ticket at the tail of the queue otherwise — so every exclusive
// grant follows one per-table ticket order, whatever path requested it.
// Temporary tables are session-private and need no locks. When the session
// is not in an explicit transaction the caller releases locks at statement
// end.
func (s *Session) lockTable(name string, deadline time.Time) error {
	if _, isTemp := s.tempGet(name); isTemp {
		s.engine.locks.cancelReservations(s, name)
		return nil
	}
	req := s.engine.locks.takeReservation(s, name)
	if req == nil {
		req = s.engine.locks.issueNow(s, name)
	}
	return s.engine.locks.waitReservation(req, deadline)
}

// endStatement commits or undoes an auto-commit statement and releases its
// locks and snapshot pin. Inside a transaction it does nothing: locks are
// strict 2PL and the transaction's snapshot pin stays until commit or
// rollback.
func (s *Session) endStatement(err error) error {
	if s.inTx {
		return err
	}
	n := len(s.undo)
	if err != nil {
		s.applyUndo()
	} else {
		s.commitVersions()
		s.undo = truncated(s.undo)
	}
	s.unpin()
	s.engine.locks.releaseAll(s)
	s.engine.noteGarbage(n)
	return err
}
