package backend

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cjdbc/internal/conflictsched"
	"cjdbc/internal/senterr"
	"cjdbc/internal/sqlparser"
)

// Errors reported by backends.
var (
	// ErrDisabled is returned for operations on a disabled backend.
	ErrDisabled = errors.New("backend: disabled")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("backend: closed")
	// ErrStatement is the errors.Is sentinel for backend-level statement
	// errors — client misuse that fails identically on every replica (for
	// example writing to an already-ended transaction). Like the engine's
	// ErrSemantic, it must never trigger failover or disable a backend.
	ErrStatement = errors.New("backend: statement error")
)

// State is the backend lifecycle state (§3 of the paper: backends are
// disabled on failure or for checkpointing, then re-integrated).
type State int32

// Backend states.
const (
	StateDisabled State = iota
	StateEnabled
	StateRecovering
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateDisabled:
		return "disabled"
	case StateEnabled:
		return "enabled"
	case StateRecovering:
		return "recovering"
	}
	return "unknown"
}

// Config configures a Backend.
type Config struct {
	Name     string
	Driver   Driver
	Weight   int // weighted-round-robin weight; 0 means 1
	MaxConns int // connection pool size; 0 means 16
	// Tables declares the subset of the virtual database's tables this
	// backend hosts (RAIDb-2 partial replication, §2.4.3). Empty means the
	// backend hosts everything (RAIDb-1 full replication). The controller
	// pins each declared table's placement to the declaring backends and
	// routes reads, writes, and recovery streams accordingly.
	Tables []string
}

// Backend is one database of a virtual database: a native driver plus the
// connection manager, the ordered write pipeline, and monitoring counters.
//
// Writes execute on two paths, mirroring C-JDBC's per-transaction backend
// worker threads: each transaction has its own connection and worker (so a
// transaction blocked on database locks never prevents another
// transaction's commit from being delivered), and auto-commit writes run on
// a per-backend worker pool fed by conflict lanes — each task waits only
// for the previously enqueued tasks whose conflict footprint (table set)
// intersects its own, so writes to disjoint tables execute concurrently
// while writes sharing a table apply strictly in enqueue order. DDL and
// statements with unknown footprints are barriers: they wait for everything
// ahead and everything behind waits for them.
//
// Enqueue-time reservation is the single ordering authority: while the
// scheduler holds the conflict class's locks across the enqueues to all
// backends, every write — transactional or auto-commit — queues its engine
// lock ticket in that cluster submission order. Transactional writes
// reserve on their dedicated connection; auto-commit writes pre-bind a
// dedicated connection at enqueue (drawn from a reset-and-reuse free-list,
// not opened per write) and hold its ticket from enqueue to apply, parked
// out of the worker pool until the engine grants it. The
// engine's per-table FIFO of tickets then grants conflicting writes —
// including auto-commit/transactional pairs — in the same order on every
// replica; non-conflicting writes commute, so their order is free. Drivers
// whose connections cannot reserve (remote backends) fall back to
// execution-time locking and rely on their database's own lock queueing,
// as C-JDBC did.
type Backend struct {
	name     string
	weight   int
	driver   Driver
	maxConns int
	declared []string // lower-cased declared hosted tables; nil = all

	state atomic.Int32

	// Connection pool: sem bounds total connections, idle holds returned ones.
	sem  chan struct{}
	idle chan Conn

	mu  sync.Mutex
	txs map[uint64]*txConn

	// Auto-commit worker pool: pool assigns each task its lane dependencies
	// (the newest earlier task per table of its footprint; DDL / unknown
	// footprints are barriers — the shared conflict-class dependency rule in
	// internal/conflictsched) plus a readiness gate tied to the task's
	// engine lock ticket, and runs ready tasks on a fixed set of workers
	// with lane work-stealing. autoSem bounds queued-plus-running
	// auto-commit tasks (the backpressure the bounded FIFO queue used to
	// provide). noTickets caches that the driver's connections cannot
	// reserve, so the pre-bind probe is not repeated per write.
	pool      *conflictsched.Pool
	autoSem   chan struct{}
	noTickets atomic.Bool

	// prebound is the free-list of dedicated auto-commit connections. Each
	// write's enqueue-time lock ticket needs a connection of its own (the
	// ticket lives from enqueue to apply), but opening a fresh session per
	// write puts session setup and teardown on the broadcast path; instead a
	// finished task resets its connection (ConnResetter) and parks it here
	// for the next enqueue.
	prebound chan Conn
	// preGen is the free-list generation: the disable teardown bumps it and
	// drains the list, and a task releasing its pre-bound connection re-parks
	// it only when the generation still matches the one it was drawn under —
	// so a re-enabled backend never hands out a session bound to pre-restore
	// engine state. preMu serializes re-park against the teardown's drain,
	// closing the bump/park race.
	preGen atomic.Uint64
	preMu  sync.Mutex

	closed chan struct{}

	// onFailure is invoked (on its own goroutine) when a write fails, so
	// the request manager can react (§2.4.1: no 2PC; a backend failing a
	// write is disabled).
	onFailure atomic.Value // func(*Backend, error)

	// fault is the installed fault plan (nil = healthy); see faultplan.go.
	fault atomic.Pointer[FaultPlan]

	pending  atomic.Int64
	ops      atomic.Int64
	failures atomic.Int64
}

// txConn is the per-transaction connection with its own worker lane and
// write-completion tracking (read-your-writes under early response).
type txConn struct {
	conn   Conn
	mu     sync.Mutex
	wrote  sync.WaitGroup
	queue  chan *writeTask
	ending bool // an end-of-transaction task has been enqueued
	dead   bool // the disable teardown (not the client) ended it
}

// writeTask is one write on one backend. An auto-commit task is its own
// pool task (the embedded conflictsched.Task, run through Run) and its own
// engine ticket notifier (TicketGranted), so a write allocates one object
// per backend for all three roles.
type writeTask struct {
	conflictsched.Task
	b     *Backend
	txID  uint64 // 0 = auto-commit
	class sqlparser.StatementClass
	st    sqlparser.Statement
	sql   string
	done  chan<- WriteOutcome
	// conn is the pre-bound connection holding the task's engine lock
	// ticket from enqueue to apply (auto-commit path); nil means the task
	// checks a pooled connection out at execution time instead. gen is the
	// free-list generation conn was drawn under.
	conn Conn
	gen  uint64
}

// WriteOutcome is the terminal result of an asynchronous write.
type WriteOutcome struct {
	Backend *Backend
	Res     *Result
	Err     error
}

// Outcomes aggregates the outcomes of one cluster-wide write operation on a
// single shared channel allocated at enqueue time. Each of the N involved
// backends delivers exactly one WriteOutcome; the channel's capacity is N,
// so senders never block and a waiter applying an early-response policy may
// simply abandon the channel once satisfied — no fan-in goroutines, no
// drain goroutine.
type Outcomes struct {
	C chan WriteOutcome
	N int
}

// NewOutcomes allocates the shared channel for n backends.
func NewOutcomes(n int) Outcomes {
	return Outcomes{C: make(chan WriteOutcome, n), N: n}
}

// New creates a backend in the disabled state.
func New(cfg Config) *Backend {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 16
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	var declared []string
	if len(cfg.Tables) > 0 {
		seen := make(map[string]bool, len(cfg.Tables))
		for _, t := range cfg.Tables {
			lt := strings.ToLower(strings.TrimSpace(t))
			if lt != "" && !seen[lt] {
				seen[lt] = true
				declared = append(declared, lt)
			}
		}
		sort.Strings(declared)
	}
	b := &Backend{
		name:     cfg.Name,
		weight:   cfg.Weight,
		declared: declared,
		driver:   cfg.Driver,
		maxConns: cfg.MaxConns,
		sem:      make(chan struct{}, cfg.MaxConns),
		idle:     make(chan Conn, cfg.MaxConns),
		txs:      make(map[uint64]*txConn),
		// At least 2: a write parked on a remote driver's locks must not starve the rest.
		pool:     conflictsched.NewPool(max(2, runtime.GOMAXPROCS(0))),
		autoSem:  make(chan struct{}, 4096),
		prebound: make(chan Conn, cfg.MaxConns),
		closed:   make(chan struct{}),
	}
	return b
}

// Name returns the backend name.
func (b *Backend) Name() string { return b.name }

// DeclaredTables returns the backend's declared hosted-table subset
// (lower-cased, sorted, deduplicated), or nil when it hosts everything.
func (b *Backend) DeclaredTables() []string {
	out := make([]string, len(b.declared))
	copy(out, b.declared)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Weight returns the load-balancing weight.
func (b *Backend) Weight() int { return b.weight }

// Driver exposes the native driver (for metadata and checkpointing).
func (b *Backend) Driver() Driver { return b.driver }

// State returns the current lifecycle state.
func (b *Backend) State() State { return State(b.state.Load()) }

// Enable moves the backend to the enabled state.
func (b *Backend) Enable() { b.state.Store(int32(StateEnabled)) }

// Disable moves the backend to the disabled state and tears its in-flight
// work down crash-consistently (§2.4.1: no 2PC — a backend failing a write
// is disabled; §3: it re-integrates later by replaying the recovery log):
//
//   - auto-commit tasks parked on engine lock tickets are flushed through
//     the pool's gates, run, observe the disabled state, and release their
//     pre-bound connections — so no per-table ticket FIFO head strands;
//   - the pre-bound free-list is invalidated and drained (a re-enabled
//     backend must never hand out a pre-restore session);
//   - every in-flight transaction is killed and rolled back through its own
//     worker, releasing its engine locks and unconsumed tickets, and is
//     recorded dead so re-integration waits for its cluster-side fate;
//   - every already-enqueued write still delivers exactly one terminal
//     Outcome (ErrDisabled once the teardown has passed it) — zero lost
//     acks.
//
// The enabled→disabled transition is a compare-and-swap; Disable reports
// whether this call performed it, so concurrent failure paths disable (and
// count) a backend exactly once. A second caller returns false immediately
// without waiting for the first caller's teardown.
func (b *Backend) Disable() bool {
	wasEnabled := b.state.CompareAndSwap(int32(StateEnabled), int32(StateDisabled))
	if !wasEnabled && !b.state.CompareAndSwap(int32(StateRecovering), int32(StateDisabled)) {
		return false // already disabled; a teardown has run
	}
	b.teardown()
	return wasEnabled
}

// teardown is the disable-time cleanup. It must run after the state is
// already StateDisabled and must not wait on client work: it unblocks
// everything (kills plus gate flushes) and lets the workers drain.
func (b *Backend) teardown() {
	// Invalidate and drain the pre-bound free-list. The generation bump
	// precedes the drain: a task releasing its connection concurrently
	// either parked before the drain (and is drained here) or checks the
	// generation under preMu after the bump and closes instead of parking.
	b.preGen.Add(1)
	b.preMu.Lock()
	for {
		select {
		case c := <-b.prebound:
			_ = c.Close()
		default:
			b.preMu.Unlock()
			goto drained
		}
	}
drained:

	// Flush auto-commit tasks parked on tickets a dead transaction would
	// never grant. One-shot: future gates keep working, so the backend can
	// re-enable later (Close uses ForceGates instead).
	b.pool.OpenGates()

	// Kill and roll back in-flight transactions. A transaction already
	// ending (its commit/rollback is queued) is left alone: its own
	// demarcation tears it down. Kills fire first so every worker parked in
	// an engine lock wait aborts; the synthetic rollbacks then run on each
	// transaction's own worker — the one goroutine allowed to touch its
	// session — undoing its writes and releasing its locks and tickets.
	b.mu.Lock()
	type dying struct {
		id uint64
		tc *txConn
	}
	var list []dying
	for id, tc := range b.txs {
		if tc.ending || tc.conn == nil {
			// conn == nil: txConnFor is still opening it; the opener re-checks
			// the state afterwards and reaps it (reapTxIfDisabled).
			continue
		}
		tc.ending = true
		tc.dead = true
		b.pending.Add(1)
		list = append(list, dying{id, tc})
	}
	b.mu.Unlock()
	for _, d := range list {
		if k, ok := d.tc.conn.(ConnKiller); ok {
			k.Kill()
		}
	}
	for _, d := range list {
		done := make(chan WriteOutcome, 1) // internal; outcome discarded
		d.tc.queue <- &writeTask{txID: d.id, class: sqlparser.ClassRollback, sql: "ROLLBACK", done: done}
	}
}

// reapTxIfDisabled closes the race between a concurrent Disable and a
// client path that just created or used this transaction's connection: the
// teardown can only kill the transactions it finds in b.txs, so after
// touching a txConn the client path re-checks the state and, if the backend
// went disabled meanwhile, performs the same kill-and-rollback itself. The
// ending flag makes teardown and reap mutually idempotent.
func (b *Backend) reapTxIfDisabled(txID uint64) {
	if b.State() == StateEnabled {
		return
	}
	b.mu.Lock()
	tc, ok := b.txs[txID]
	if !ok || tc.ending || tc.conn == nil {
		b.mu.Unlock()
		return
	}
	tc.ending = true
	tc.dead = true
	b.pending.Add(1)
	b.mu.Unlock()
	if k, ok := tc.conn.(ConnKiller); ok {
		k.Kill()
	}
	done := make(chan WriteOutcome, 1)
	tc.queue <- &writeTask{txID: txID, class: sqlparser.ClassRollback, sql: "ROLLBACK", done: done}
}

// DrainWrites blocks until every write enqueued so far has delivered its
// terminal outcome: the auto-commit worker pool is drained and every
// transaction lane with a queued end-of-transaction task has ended.
// Read-only transactions (open lanes that never wrote and are not ending)
// are not waited on — they hold no writes to flush. The caller must have
// stopped new write enqueues (for example by holding the cluster write
// quiesce, or after Disable); reads may continue. Checkpointing uses it so a
// dump contains every write at or below the checkpoint marker, and
// re-integration uses it so the disable teardown's rollbacks have finished
// before the restore starts dropping tables under them.
func (b *Backend) DrainWrites() {
	b.pool.Drain()
	for {
		busy := false
		b.mu.Lock()
		for _, tc := range b.txs {
			if tc.ending {
				busy = true
				break
			}
		}
		b.mu.Unlock()
		if !busy {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// SetRecovering marks the backend as replaying the recovery log.
func (b *Backend) SetRecovering() { b.state.Store(int32(StateRecovering)) }

// Enabled reports whether the backend accepts client operations.
func (b *Backend) Enabled() bool { return b.State() == StateEnabled }

// Pending returns the number of queued plus executing requests, the gauge
// the least-pending-requests-first balancer reads.
func (b *Backend) Pending() int { return int(b.pending.Load()) }

// Ops returns the number of operations executed.
func (b *Backend) Ops() int64 { return b.ops.Load() }

// Failures returns the number of failed operations.
func (b *Backend) Failures() int64 { return b.failures.Load() }

// OnWriteFailure registers the request manager's failure callback.
func (b *Backend) OnWriteFailure(f func(*Backend, error)) { b.onFailure.Store(f) }

// InjectFailure makes every subsequent operation fail with err, for fault
// injection tests. Pass nil to heal. It is the all-or-nothing special case
// of SetFaultPlan.
func (b *Backend) InjectFailure(err error) {
	if err == nil {
		b.fault.Store(nil)
	} else {
		b.fault.Store(NewFaultPlan(&Rule{Err: err}))
	}
}

// SetFaultPlan installs a scripted fault plan (nil clears). Every backend
// operation — reads, writes, commits, probes, and DirectExec — consults the
// plan at its driver seam before executing.
func (b *Backend) SetFaultPlan(p *FaultPlan) { b.fault.Store(p) }

// FaultPlan returns the installed plan, nil when healthy.
func (b *Backend) FaultPlan() *FaultPlan { return b.fault.Load() }

// faultCheck runs one operation through the installed fault plan. st (may
// be nil) supplies the op's table lazily, only when a plan is active, so
// the healthy hot path pays a single atomic load.
func (b *Backend) faultCheck(kind OpKind, st sqlparser.Statement, txID uint64) error {
	p := b.fault.Load()
	if p == nil {
		return nil
	}
	op := Op{Kind: kind, TxID: txID}
	if st != nil {
		if tbl, ok := sqlparser.WriteTarget(st); ok {
			op.Table = tbl
		} else if tables, _ := sqlparser.ConflictClass(st); len(tables) > 0 {
			op.Table = tables[0]
		}
	}
	delay, err := p.check(op)
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// Ping is the health monitor's cheap probe: it consults the fault plan (so
// injected faults and crashes fail probes too) and validates that a
// connection can be produced. A saturated-but-serving pool passes — probe
// goroutines must never queue behind client load.
func (b *Backend) Ping() error {
	select {
	case <-b.closed:
		return ErrClosed
	default:
	}
	if err := b.faultCheck(OpProbe, nil, 0); err != nil {
		return err
	}
	select {
	case b.sem <- struct{}{}:
	default:
		return nil
	}
	var c Conn
	select {
	case c = <-b.idle:
	default:
		var err error
		c, err = b.driver.Open()
		if err != nil {
			<-b.sem
			return fmt.Errorf("backend %s: probe open: %w", b.name, err)
		}
	}
	b.checkin(c)
	return nil
}

func (b *Backend) notifyFailure(err error) {
	if errors.Is(err, ErrDisabled) || errors.Is(err, ErrClosed) {
		return
	}
	if f, ok := b.onFailure.Load().(func(*Backend, error)); ok && f != nil {
		go f(b, err)
	}
}

// Close shuts the backend down, closing pooled connections. Forcing the
// pool's readiness gates lets tasks whose lock tickets would never be
// granted (queued behind a transaction that will not end) run, observe the
// closed state, and release their pre-bound connections. Draining the lane
// semaphore to capacity then waits for every in-flight auto-commit task (a
// task releases its slot as its final action) and, because enqueuers
// re-check closed after acquiring a slot, guarantees no task can start
// afterwards; the worker pool is stopped once drained.
func (b *Backend) Close() {
	select {
	case <-b.closed:
		return
	default:
	}
	b.Disable()
	close(b.closed)
	b.pool.ForceGates()
	for i := 0; i < cap(b.autoSem); i++ {
		b.autoSem <- struct{}{}
	}
	b.pool.Stop()
	for {
		select {
		case c := <-b.idle:
			_ = c.Close()
		case c := <-b.prebound:
			_ = c.Close()
		default:
			return
		}
	}
}

// checkout obtains a pooled connection, opening a new one when under the
// connection cap. It blocks while the pool is exhausted, which is the
// queueing point that models the backend machine's capacity.
func (b *Backend) checkout() (Conn, error) {
	select {
	case <-b.closed:
		return nil, ErrClosed
	case b.sem <- struct{}{}:
	}
	select {
	case c := <-b.idle:
		return c, nil
	default:
	}
	c, err := b.driver.Open()
	if err != nil {
		<-b.sem
		return nil, fmt.Errorf("backend %s: open: %w", b.name, err)
	}
	return c, nil
}

func (b *Backend) checkin(c Conn) {
	select {
	case b.idle <- c:
	default:
		_ = c.Close()
	}
	<-b.sem
}

// Read executes a read on this backend. txID 0 means auto-commit. Within a
// transaction the read waits for the transaction's earlier asynchronous
// writes on this backend (§2.4.4: read-your-writes under early response).
func (b *Backend) Read(txID uint64, st sqlparser.Statement, sql string) (*Result, error) {
	if !b.Enabled() {
		return nil, ErrDisabled
	}
	b.pending.Add(1)
	defer b.pending.Add(-1)

	if txID != 0 {
		tc, err := b.txConnFor(txID)
		if err != nil {
			return nil, err
		}
		b.reapTxIfDisabled(txID)
		tc.wrote.Wait()
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return b.execRead(tc.conn, txID, st, sql)
	}

	c, err := b.checkout()
	if err != nil {
		return nil, err
	}
	defer b.checkin(c)
	return b.execRead(c, 0, st, sql)
}

// execRead runs a read on the connection it holds. The fault plan is
// consulted here, not on entry: an injected latency is service time, so the
// read sleeps pending and holding its connection, like a slow statement.
func (b *Backend) execRead(c Conn, txID uint64, st sqlparser.Statement, sql string) (*Result, error) {
	if err := b.faultCheck(OpRead, st, txID); err != nil {
		b.failures.Add(1)
		return nil, err
	}
	b.ops.Add(1)
	res, err := c.Exec(st, sql)
	if err != nil {
		b.failures.Add(1)
	}
	return res, err
}

// txConnFor returns (creating lazily) the transaction's connection on this
// backend. Lazy transaction begin (§2.4.4): the backend-side transaction
// starts only when the backend first needs to execute for it.
func (b *Backend) txConnFor(txID uint64) (*txConn, error) {
	b.mu.Lock()
	tc, ok := b.txs[txID]
	if ok {
		b.mu.Unlock()
		return tc, nil
	}
	tc = &txConn{queue: make(chan *writeTask, 1024)}
	b.txs[txID] = tc
	b.mu.Unlock()

	// Transaction connections are dedicated, not pooled: drawing them from
	// the bounded pool would let a burst of transactions exhaust it and
	// stall the scheduler's dispatch (which runs under the cluster write
	// lock).
	c, err := b.driver.Open()
	if err == nil {
		err = c.Begin()
		if err != nil {
			_ = c.Close()
		}
	}
	if err != nil {
		b.mu.Lock()
		delete(b.txs, txID)
		b.mu.Unlock()
		return nil, err
	}
	// Publish the connection under b.mu: the disable teardown reads it (and
	// skips still-opening entries) under the same mutex.
	b.mu.Lock()
	tc.conn = c
	b.mu.Unlock()
	go b.txWorker(txID, tc)
	return tc, nil
}

// txWorker drains one transaction's write lane in FIFO order and exits
// after the end-of-transaction task.
func (b *Backend) txWorker(txID uint64, tc *txConn) {
	for t := range tc.queue {
		res, err := b.execTxTask(txID, tc, t)
		if err != nil {
			b.failures.Add(1)
			b.notifyFailure(err)
		}
		b.pending.Add(-1)
		t.done <- WriteOutcome{Backend: b, Res: res, Err: err}
		if t.class != sqlparser.ClassWrite {
			break
		}
	}
	// The end-of-transaction task is the last task its lane ever carries:
	// every enqueue path checks tc.ending under b.mu before bumping the
	// pending gauge and sending (the teardown's synthetic rollback sets
	// ending under the same mutex). This sweep enforces that invariant
	// structurally: a task stranded behind the demarcation would otherwise
	// hold the pending gauge up forever — wedging least-pending balancing on
	// a crashed backend — and hang its waiter; deliver a terminal outcome
	// and rebalance the gauge instead.
	for {
		select {
		case t := <-tc.queue:
			if t.class == sqlparser.ClassWrite {
				tc.wrote.Done()
			}
			b.pending.Add(-1)
			t.done <- WriteOutcome{Backend: b, Err: ErrDisabled}
		default:
			return
		}
	}
}

func (b *Backend) execTxTask(txID uint64, tc *txConn, t *writeTask) (*Result, error) {
	if t.class == sqlparser.ClassCommit || t.class == sqlparser.ClassRollback {
		kind := OpCommit
		if t.class == sqlparser.ClassRollback {
			kind = OpRollback
		}
		tc.mu.Lock()
		// A fault on the demarcation (the crash-mid-transaction case) skips
		// it; the close below still rolls the engine-side transaction back
		// and releases its locks and tickets.
		err := b.faultCheck(kind, nil, txID)
		if err == nil {
			if t.class == sqlparser.ClassCommit {
				err = tc.conn.Commit()
			} else {
				err = tc.conn.Rollback()
			}
		}
		tc.mu.Unlock()
		b.mu.Lock()
		delete(b.txs, txID)
		b.mu.Unlock()
		_ = tc.conn.Close()
		b.ops.Add(1)
		return &Result{}, err
	}

	defer tc.wrote.Done()
	if b.State() == StateDisabled {
		return nil, ErrDisabled
	}
	if err := b.faultCheck(OpWrite, t.st, txID); err != nil {
		return nil, err
	}
	b.ops.Add(1)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.conn.Exec(t.st, t.sql)
}

// HasTx reports whether the transaction has started on this backend.
func (b *Backend) HasTx(txID uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.txs[txID]
	return ok
}

// EnqueueWrite appends a write (or commit/rollback) to the backend's
// ordered write lanes and returns a channel delivering the outcome. The
// scheduler enqueues each cluster-wide write to all backends in the same
// order, which is what keeps replicas identical (§2.4.1).
func (b *Backend) EnqueueWrite(txID uint64, class sqlparser.StatementClass, st sqlparser.Statement, sql string) <-chan WriteOutcome {
	done := make(chan WriteOutcome, 1)
	b.EnqueueWriteTo(txID, class, st, sql, done)
	return done
}

// EnqueueWriteTo is EnqueueWrite delivering into a caller-supplied channel,
// so one cluster-wide operation spanning several backends shares a single
// buffered channel instead of one channel (and one fan-in goroutine) per
// backend. done must have spare capacity for one outcome per enqueued
// backend: exactly one WriteOutcome is sent, and the send must never block.
func (b *Backend) EnqueueWriteTo(txID uint64, class sqlparser.StatementClass, st sqlparser.Statement, sql string, done chan<- WriteOutcome) {
	tables, global := sqlparser.ConflictClass(st)
	b.EnqueueWriteClassTo(txID, class, st, sql, tables, global, done)
}

// EnqueueWriteClassTo is EnqueueWriteTo with the statement's conflict class
// (sorted, deduplicated tables, or global) precomputed by the caller — the
// request manager broadcasts one write to every backend and computes the
// class once, in its plan cache.
func (b *Backend) EnqueueWriteClassTo(txID uint64, class sqlparser.StatementClass, st sqlparser.Statement, sql string, tables []string, global bool, done chan<- WriteOutcome) {
	t := &writeTask{txID: txID, class: class, st: st, sql: sql, done: done}

	reply := func(res *Result, err error) {
		done <- WriteOutcome{Backend: b, Res: res, Err: err}
	}
	if !b.Enabled() {
		reply(nil, ErrDisabled)
		return
	}

	if txID != 0 {
		switch class {
		case sqlparser.ClassWrite:
			tc, err := b.txConnFor(txID)
			if err != nil {
				reply(nil, err)
				return
			}
			// The ending check, reservation, and queue send form one critical
			// section under b.mu: the disable teardown marks ending under the
			// same mutex before enqueueing its synthetic rollback, so an
			// end-of-transaction task is always the LAST task its worker sees
			// — a write can never land behind the rollback of a transaction
			// the teardown already ended (which would strand its ack).
			b.mu.Lock()
			if tc.dead {
				b.mu.Unlock()
				reply(nil, ErrDisabled)
				return
			}
			if tc.ending {
				b.mu.Unlock()
				reply(nil, senterr.Wrap(ErrStatement, fmt.Errorf("backend %s: transaction %d already ended", b.name, txID)))
				return
			}
			tc.wrote.Add(1)
			b.pending.Add(1)
			// Reserve the write lock now, in cluster submission order, so
			// conflicting transactions take their locks in the same order
			// on every replica (§2.4.1 total write order).
			if r, ok := tc.conn.(LockReserver); ok && t.st != nil {
				if tbl, isWrite := sqlparser.WriteTarget(t.st); isWrite {
					r.ReserveWriteLock(tbl)
				}
			}
			tc.queue <- t
			b.mu.Unlock()
			// A disable may have raced the txConn's creation; reap closes it.
			b.reapTxIfDisabled(txID)
			return
		case sqlparser.ClassCommit, sqlparser.ClassRollback:
			b.mu.Lock()
			tc, ok := b.txs[txID]
			if !ok {
				b.mu.Unlock()
				// Lazy begin: the transaction never touched this backend.
				reply(&Result{}, nil)
				return
			}
			if tc.dead {
				b.mu.Unlock()
				reply(nil, ErrDisabled)
				return
			}
			if tc.ending {
				b.mu.Unlock()
				// The end was already delivered.
				reply(&Result{}, nil)
				return
			}
			tc.ending = true
			b.pending.Add(1)
			tc.queue <- t
			b.mu.Unlock()
			return
		}
	}

	// Auto-commit worker pool. The semaphore preserves the bounded-queue
	// backpressure; the pool records which previously enqueued tasks this
	// one conflicts with (lane dependencies) and parks the task until its
	// engine lock ticket — issued below, still inside the scheduler's
	// critical section — is granted.
	if t.st == nil && sql != "" {
		// Direct callers (tests, ad-hoc tooling) may enqueue raw SQL; parse
		// it here so the task gets a real footprint and a lock ticket
		// instead of degrading to an unticketed barrier. Parse failures
		// stay barriers and surface at execution.
		if st, err := sqlparser.Parse(sql); err == nil {
			t.st = st
			tables, global = sqlparser.ConflictClass(st)
		}
	}
	select {
	case b.autoSem <- struct{}{}:
	case <-b.closed:
		reply(nil, ErrClosed)
		return
	}
	// Re-check after acquiring: Close drains the semaphore to capacity, so
	// once this check passes Close cannot complete its drain before this
	// task releases — the task is fully accounted for.
	select {
	case <-b.closed:
		<-b.autoSem
		reply(nil, ErrClosed)
		return
	default:
	}
	b.pending.Add(1)
	t.b = b

	// Pre-bind a dedicated connection and queue the write's engine lock
	// ticket now, in cluster submission order; the task becomes runnable
	// only once both its lane dependencies and its ticket grant arrive, so
	// a write parked behind a transaction's lock occupies no pool worker.
	// The ticket is reserved BEFORE the task is submitted: until the gate
	// opens, only this goroutine touches the pre-bound session, so even a
	// concurrent Close (which force-opens gates) cannot run the task — and
	// close its session — while the reservation is still being placed. A
	// grant that arrives first is remembered by the pool (Release before
	// SubmitGated).
	if reserver, tbl := b.prebind(t); reserver != nil {
		reserver.ReserveWriteLockNotify(tbl, t)
		b.pool.SubmitGated(&t.Task, t, tables, global, ticketEscape)
		return
	}
	b.pool.Submit(&t.Task, t, tables, global)
}

// Run executes an auto-commit task on a pool worker.
func (t *writeTask) Run() {
	t.b.runAuto(t)
	// Slot release is the task's final action; Close's drain keys on it.
	<-t.b.autoSem
}

// TicketGranted opens the task's pool gate once the engine grants (or
// drops) its lock ticket.
func (t *writeTask) TicketGranted() { t.b.pool.Release(&t.Task) }

// ticketEscape bounds how long a write may stay parked on an ungranted
// ticket. The paper's backends resolve deadlock and starvation by lock
// timeout; a parked task sees no engine deadline (that clock starts at
// execution), so after this delay the task is released to a worker anyway
// and blocks in the engine's own lock wait, which fails with its
// ErrLockTimeout if the holder never lets go — restoring the pre-pool
// liveness bound (a stuck transaction can stall same-table writes only for
// ticketEscape + the engine lock timeout, never wedge the backend).
const ticketEscape = time.Second

// prebind opens the dedicated connection an auto-commit write holds from
// enqueue to apply, returning its ticket interface and target table. It
// returns nil when the statement has no single write target (parse failure:
// a lane barrier) or the driver's connections cannot reserve — those tasks
// fall back to execution-time locking on a pooled connection.
func (b *Backend) prebind(t *writeTask) (TicketReserver, string) {
	if t.st == nil || b.noTickets.Load() {
		return nil, ""
	}
	tbl, ok := sqlparser.WriteTarget(t.st)
	if !ok {
		return nil, ""
	}
	gen := b.preGen.Load()
	var c Conn
	select {
	case c = <-b.prebound:
	default:
		var err error
		c, err = b.driver.Open()
		if err != nil {
			// Surface the failure at execution time, as the pooled path would.
			return nil, ""
		}
	}
	r, ok := c.(TicketReserver)
	if !ok {
		b.noTickets.Store(true)
		_ = c.Close()
		return nil, ""
	}
	t.conn = c
	t.gen = gen
	return r, tbl
}

// releasePrebound returns a task's dedicated connection to the free-list
// after resetting it — which releases the task's lock ticket (granted or
// not) exactly as closing would — or closes it when the free-list is full,
// the backend is shutting down, the free-list generation moved (a disable
// invalidated pre-disable sessions), or the connection cannot reset. The
// generation check and the park happen under preMu, serialized against the
// teardown's bump-and-drain, so a stale connection can never slip back in
// after the drain.
func (b *Backend) releasePrebound(c Conn, gen uint64) {
	if r, ok := c.(ConnResetter); ok {
		select {
		case <-b.closed:
		default:
			if r.Reset() == nil {
				b.preMu.Lock()
				if gen == b.preGen.Load() {
					select {
					case b.prebound <- c:
						b.preMu.Unlock()
						return
					default:
					}
				}
				b.preMu.Unlock()
			}
		}
	}
	_ = c.Close()
}

func (b *Backend) runAuto(t *writeTask) {
	res, err := b.execAuto(t)
	if err != nil {
		b.failures.Add(1)
		b.notifyFailure(err)
	}
	b.pending.Add(-1)
	t.done <- WriteOutcome{Backend: b, Res: res, Err: err}
}

func (b *Backend) execAuto(t *writeTask) (*Result, error) {
	if t.conn != nil {
		// Releasing the pre-bound connection is unconditional: the reset (or
		// close) drops the task's lock ticket (granted or not) whether the
		// write executed, failed, or was skipped because the backend shut
		// down.
		defer func() { b.releasePrebound(t.conn, t.gen) }()
	}
	if b.State() == StateDisabled {
		return nil, ErrDisabled
	}
	c := t.conn
	if c == nil {
		pc, err := b.checkout()
		if err != nil {
			return nil, err
		}
		defer b.checkin(pc)
		c = pc
	}
	if err := b.faultCheck(OpWrite, t.st, 0); err != nil {
		return nil, err
	}
	b.ops.Add(1)
	return c.Exec(t.st, t.sql)
}

// AbortTx force-releases a transaction's connection (used when a client
// session dies without demarcating). It waits for the rollback to finish.
func (b *Backend) AbortTx(txID uint64) {
	out := b.EnqueueWrite(txID, sqlparser.ClassRollback, nil, "ROLLBACK")
	<-out
}

// TableNames gathers the backend's schema, preferring driver metadata and
// falling back to SHOW TABLES over a connection (§2.4.3: schema information
// is dynamically gathered when a backend is enabled).
func (b *Backend) TableNames() ([]string, error) {
	if sp, ok := b.driver.(SchemaProvider); ok {
		return sp.TableNames()
	}
	c, err := b.checkout()
	if err != nil {
		return nil, err
	}
	defer b.checkin(c)
	res, err := c.Exec(nil, "SHOW TABLES")
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].AsString())
	}
	return out, nil
}

// Exec executes any statement in auto-commit mode through the ordered
// write pipeline (for writes) or directly (for reads); a convenience used
// by recovery replay and examples.
func (b *Backend) Exec(st sqlparser.Statement, sql string) (*Result, error) {
	if st == nil {
		var err error
		st, err = sqlparser.Parse(sql)
		if err != nil {
			return nil, err
		}
	}
	if sqlparser.Classify(st) == sqlparser.ClassRead {
		return b.Read(0, st, sql)
	}
	out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, st, sql)
	return out.Res, out.Err
}

// DirectExec bypasses the enabled-state check, executing directly on a
// fresh connection. Checkpointing and recovery use it while the backend is
// disabled for clients. It still consults the fault plan: a crashed backend
// cannot be restored until the fault heals, which is what the
// re-integration supervisor's retry loop rides on.
func (b *Backend) DirectExec(st sqlparser.Statement, sql string) (*Result, error) {
	if err := b.faultCheck(OpDirect, st, 0); err != nil {
		return nil, err
	}
	c, err := b.driver.Open()
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.Close() }()
	return c.Exec(st, sql)
}
