package controller

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/cache"
	"cjdbc/internal/plancache"
	"cjdbc/internal/recovery"
	"cjdbc/internal/senterr"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Errors reported by the virtual database.
var (
	// ErrNoWriteTarget is returned when no enabled backend hosts the
	// tables a write affects.
	ErrNoWriteTarget = errors.New("controller: no enabled backend hosts the written tables")
	// ErrUnknownBackend is returned for operations naming a backend the
	// virtual database does not contain.
	ErrUnknownBackend = errors.New("controller: unknown backend")
	// ErrSessionClosed is returned for operations on a closed session.
	ErrSessionClosed = errors.New("controller: session closed")
)

// VDBConfig configures a virtual database.
type VDBConfig struct {
	Name          string
	ControllerID  uint16
	Replication   balancer.Replication // nil means full replication
	Balancer      balancer.Balancer    // nil means least-pending-requests-first
	Cache         *cache.ResultCache   // nil disables result caching
	RecoveryLog   recovery.Log         // nil disables logging
	EarlyResponse ResponsePolicy       // applies to update/commit/abort
	ParallelTx    bool                 // §2.4.4 parallel transactions
	Auth          *AuthManager         // nil accepts everyone
	// Health configures failure containment and automatic re-integration
	// (§3: "tools to automatically re-integrate failed backends"). The zero
	// value keeps the classic behavior: one-strike disable, no probing, no
	// automatic re-integration.
	Health HealthConfig
	// Placement configures the load-driven dynamic-placement policy. The
	// zero value disables the policy goroutine; manual AddTableHost /
	// RemoveTableHost moves work regardless (under partial replication).
	Placement PlacementPolicy
}

// Stats counts virtual database activity.
type Stats struct {
	Reads            int64
	Writes           int64
	Begins           int64
	Commits          int64
	Rollbacks        int64
	CacheHits        int64
	CacheMisses      int64
	BackendsDisabled int64
}

// VirtualDatabase presents one single-database view over a set of backends
// (§2.2). All request routing happens here: this is the request manager.
type VirtualDatabase struct {
	name  string
	auth  *AuthManager
	repl  balancer.Replication
	bal   balancer.Balancer
	cache *cache.ResultCache
	plans *plancache.Cache
	log   recovery.Log
	sched *Scheduler

	// health is the per-backend failure containment and re-integration
	// state machine; always non-nil, its goroutines run only when
	// configured (probe interval or auto-reintegration).
	health *healthMonitor

	// dynamic is set when the replication policy supports placement
	// changes; loads is the per-table per-backend read/write counter
	// feeding the dynamic-placement policy (nil unless dynamic); placer
	// executes placement moves (always non-nil, its policy goroutine runs
	// only when configured).
	dynamic bool
	loads   *balancer.LoadStats
	placer  *placementManager

	// lastDump caches the most recent successful backup so automatic
	// re-integration can restore a failed backend without re-dumping a
	// healthy one.
	lastDump atomic.Pointer[pinnedDump]

	// mu guards distributor and serializes AddBackend. backends is
	// published whole by AddBackend and never changed afterwards, so the
	// request paths read it without a copy.
	mu       sync.RWMutex
	backends atomic.Pointer[[]*backend.Backend]

	// distributor, when set, carries writes to the other controllers
	// hosting this virtual database (horizontal scalability, §4.1).
	distributor Distributor

	reads            atomic.Int64
	writes           atomic.Int64
	begins           atomic.Int64
	commits          atomic.Int64
	rollbacks        atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	backendsDisabled atomic.Int64
}

// Distributor forwards ordered write operations to every controller of a
// distributed virtual database; implemented in the distributed package.
type Distributor interface {
	// SubmitWrite broadcasts one write/commit/abort with total order and
	// returns the local application outcome.
	SubmitWrite(txID uint64, class sqlparser.StatementClass, sql string) (*backend.Result, error)
}

// NewVirtualDatabase builds a virtual database from its configuration.
func NewVirtualDatabase(cfg VDBConfig) *VirtualDatabase {
	repl := cfg.Replication
	if repl == nil {
		repl = balancer.FullReplication{}
	}
	bal := cfg.Balancer
	if bal == nil {
		bal = &balancer.LeastPending{}
	}
	auth := cfg.Auth
	if auth == nil {
		auth = NewAuthManager()
	}
	v := &VirtualDatabase{
		name:  cfg.Name,
		auth:  auth,
		repl:  repl,
		bal:   bal,
		cache: cfg.Cache,
		plans: plancache.New(plancache.DefaultMaxEntries),
		log:   cfg.RecoveryLog,
		sched: NewScheduler(cfg.ControllerID, cfg.EarlyResponse, cfg.ParallelTx),
	}
	if _, ok := repl.(balancer.Placement); ok {
		// Load accounting and the read barrier only serve dynamic
		// placement; full-replication vdbs never consult either, so they
		// skip the per-read costs entirely (loads stays nil: the Note
		// methods no-op on a nil receiver).
		v.dynamic = true
		v.loads = balancer.NewLoadStats()
	}
	v.health = newHealthMonitor(v, cfg.Health)
	v.health.start()
	v.placer = newPlacementManager(v, cfg.Placement)
	v.placer.start()
	return v
}

// Close stops the virtual database's background goroutines (health prober,
// re-integration supervisor, placement policy). Backends are not closed;
// they belong to the caller. Safe to call more than once.
func (v *VirtualDatabase) Close() {
	v.placer.close()
	v.health.close()
}

// Name returns the virtual database name.
func (v *VirtualDatabase) Name() string { return v.name }

// Auth returns the authentication manager.
func (v *VirtualDatabase) Auth() *AuthManager { return v.auth }

// Scheduler exposes the scheduler (for the distributed request manager).
func (v *VirtualDatabase) Scheduler() *Scheduler { return v.sched }

// Cache returns the result cache, or nil.
func (v *VirtualDatabase) Cache() *cache.ResultCache { return v.cache }

// PlanCache returns the parsing cache.
func (v *VirtualDatabase) PlanCache() *plancache.Cache { return v.plans }

// RecoveryLog returns the recovery log, or nil.
func (v *VirtualDatabase) RecoveryLog() recovery.Log { return v.log }

// Replication returns the replication policy.
func (v *VirtualDatabase) Replication() balancer.Replication { return v.repl }

// LoadStats returns the per-table per-backend traffic counters.
func (v *VirtualDatabase) LoadStats() *balancer.LoadStats { return v.loads }

// SetDistributor installs the horizontal-scalability write path.
func (v *VirtualDatabase) SetDistributor(d Distributor) {
	v.mu.Lock()
	v.distributor = d
	v.mu.Unlock()
}

// AddBackend attaches a backend, wires its failure callback, gathers its
// schema (dynamic schema gathering, §2.4.3) and enables it. A backend
// declaring a hosted-table subset (RAIDb-2) pins that placement on the
// replication policy before gathering, so the declaration — not the
// backend's current contents — is what routing trusts. Nothing is changed
// when it fails.
func (v *VirtualDatabase) AddBackend(b *backend.Backend) error {
	if err := v.checkDeclared(b); err != nil {
		return err
	}
	var names []string
	if v.repl.RequiresParsing() {
		var err error
		if names, err = b.TableNames(); err != nil {
			return fmt.Errorf("controller: gather schema of %s: %w", b.Name(), err)
		}
	}
	b.OnWriteFailure(v.writeFailureCallback)
	if pl, ok := v.repl.(balancer.Placement); ok {
		for _, t := range b.DeclaredTables() {
			pl.DeclareHost(t, b.Name())
		}
	}
	for _, t := range names {
		v.repl.NoteCreate(t, append(v.repl.Hosts(t), b.Name()))
	}
	v.mu.Lock()
	next := append(slices.Clone(v.backendList()), b)
	v.backends.Store(&next)
	v.mu.Unlock()
	b.Enable()
	return nil
}

// checkDeclared rejects a backend declaring a hosted-table subset on a
// replication policy that has no placement to pin it on.
func (v *VirtualDatabase) checkDeclared(b *backend.Backend) error {
	if _, ok := v.repl.(balancer.Placement); !ok && len(b.DeclaredTables()) > 0 {
		return fmt.Errorf("controller: backend %s declares hosted tables but virtual database %s uses %s replication; declared subsets need partial replication",
			b.Name(), v.name, v.repl.Name())
	}
	return nil
}

// ValidatePlacement checks the declared table placement against the
// attached backends (every declared table hosted by at least one of them,
// no unknown host names). A no-op under full replication.
func (v *VirtualDatabase) ValidatePlacement() error {
	pl, ok := v.repl.(balancer.Placement)
	if !ok {
		return nil
	}
	bs := v.Backends()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name()
	}
	return pl.Validate(names)
}

// hostFilter returns the recovery host filter restricting a backend's
// checkpoint and replay streams to its hosted tables, or nil (host
// everything) when the replication policy has no explicit placement.
func (v *VirtualDatabase) hostFilter(b *backend.Backend) recovery.HostFilter {
	pl, ok := v.repl.(balancer.Placement)
	if !ok {
		return nil
	}
	name := b.Name()
	return func(table string) bool { return pl.Hosted(table, name) }
}

// Backends returns a snapshot of the backend list.
func (v *VirtualDatabase) Backends() []*backend.Backend {
	return slices.Clone(v.backendList())
}

// backendList returns the published backend list, which nobody modifies.
func (v *VirtualDatabase) backendList() []*backend.Backend {
	if p := v.backends.Load(); p != nil {
		return *p
	}
	return nil
}

// Backend looks a backend up by name.
func (v *VirtualDatabase) Backend(name string) (*backend.Backend, error) {
	for _, b := range v.backendList() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownBackend, name)
}

// writeFailureCallback disables a backend that failed a write (§2.4.1).
// Statement-level errors (bad SQL, constraint violations, lock timeouts)
// fail identically on every replica and must not disable anything. Write
// failures never go through the suspect threshold: without 2PC a backend
// that failed a write has already diverged from the replicas that applied
// it, so the only safe containment is immediate disable.
func (v *VirtualDatabase) writeFailureCallback(fb *backend.Backend, err error) {
	if IsSemanticError(err) {
		return
	}
	v.DisableBackend(fb.Name())
}

// DisableBackend disables a backend (after a write failure or for
// maintenance); the virtual database keeps serving from the others. The
// disable is crash-consistent (backend.Disable tears down in-flight work so
// every enqueued write still gets a terminal outcome) and counted exactly
// once even when several failures race: backend.Disable's state CAS decides
// the winner. The health monitor is notified so the re-integration
// supervisor, when enabled, starts bringing the backend back.
func (v *VirtualDatabase) DisableBackend(name string) {
	b, err := v.Backend(name)
	if err != nil {
		return
	}
	if b.Disable() {
		v.backendsDisabled.Add(1)
	}
	v.health.markDown(name)
}

// BackendHealth returns the health monitor's view of one backend.
func (v *VirtualDatabase) BackendHealth(name string) BackendStatus {
	return v.health.status(name)
}

// StatsSnapshot returns the counters.
func (v *VirtualDatabase) StatsSnapshot() Stats {
	return Stats{
		Reads:            v.reads.Load(),
		Writes:           v.writes.Load(),
		Begins:           v.begins.Load(),
		Commits:          v.commits.Load(),
		Rollbacks:        v.rollbacks.Load(),
		CacheHits:        v.cacheHits.Load(),
		CacheMisses:      v.cacheMisses.Load(),
		BackendsDisabled: v.backendsDisabled.Load(),
	}
}

// Session is one client connection to the virtual database, holding its
// transaction state. Sessions are not safe for concurrent use, matching a
// JDBC Connection.
type Session struct {
	vdb    *VirtualDatabase
	user   string
	txID   uint64
	closed bool
	// bound is the statement a parameterised read hands its backend: the
	// read returns before the session's next statement, so one value per
	// session serves every read and none is allocated.
	bound sqlparser.Bound
}

// NewSession authenticates and opens a session.
func (v *VirtualDatabase) NewSession(user, password string) (*Session, error) {
	if err := v.auth.Authenticate(user, password); err != nil {
		return nil, err
	}
	return &Session{vdb: v, user: user}, nil
}

// User returns the session's login.
func (s *Session) User() string { return s.user }

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.txID != 0 }

// TxID exposes the transaction identifier (0 when auto-committing).
func (s *Session) TxID() uint64 { return s.txID }

// Close rolls back any open transaction and invalidates the session. The
// rollback goes straight through the end-of-transaction path — no parse or
// plan-cache round trip for a fixed statement.
func (s *Session) Close() {
	if s.closed {
		return
	}
	if s.txID != 0 {
		_, _ = s.execEndTx(sqlparser.ClassRollback, &sqlparser.Rollback{})
	}
	s.closed = true
}

// Exec runs one SQL statement with optional positional parameters, routing
// it per §2.4.1: begin/commit/abort to all backends, reads to one backend
// chosen by the load balancer, updates to all backends hosting the affected
// tables. Repeat statements skip parsing and analysis entirely via the
// parsing cache (§2.4.2): the cached plan carries the parsed tree plus its
// precomputed class, table list, read columns and placeholder count. The
// plan's shared tree goes down as it is, with params beside it in a
// sqlparser.Bound; only a write renders the pair, for the recovery log.
// params must fill the statement's placeholders exactly: a missing or an
// extra value is refused with a *sqlparser.BindError.
func (s *Session) Exec(sql string, params []sqlval.Value) (*backend.Result, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	v := s.vdb
	plan, err := v.planFor(sql)
	if err != nil {
		return nil, err
	}
	if err := sqlparser.CheckParams(plan.NumParams, len(params)); err != nil {
		return nil, err
	}

	switch plan.Class {
	case sqlparser.ClassBegin:
		return s.execBegin()
	case sqlparser.ClassCommit:
		return s.execEndTx(sqlparser.ClassCommit, plan.Stmt)
	case sqlparser.ClassRollback:
		return s.execEndTx(sqlparser.ClassRollback, plan.Stmt)
	case sqlparser.ClassRead:
		if len(params) == 0 {
			return v.execRead(s.txID, plan, plan.Stmt, nil)
		}
		s.bound = sqlparser.Bound{Stmt: plan.Stmt, SQL: plan.SQL, Params: params}
		res, err := v.execRead(s.txID, plan, &s.bound, params)
		s.bound = sqlparser.Bound{}
		return res, err
	default:
		return s.execWrite(plan, params)
	}
}

// planFor returns the plan for a statement text, parsing and admitting it
// into the parsing cache on miss.
func (v *VirtualDatabase) planFor(sql string) (*plancache.Plan, error) {
	key := plancache.Normalize(sql)
	if p := v.plans.Get(key); p != nil {
		return p, nil
	}
	st, err := sqlparser.Parse(key)
	if err != nil {
		return nil, err
	}
	p := plancache.Build(key, st)
	// Offer, not Put: literal-bound one-off statements pass the admission
	// doorkeeper so they cannot churn the LRU.
	v.plans.Offer(p)
	return p, nil
}

// execBegin starts a transaction lazily: no backend is contacted until the
// transaction's first statement reaches it (§2.4.4 lazy transaction begin).
func (s *Session) execBegin() (*backend.Result, error) {
	v := s.vdb
	if s.txID != 0 {
		return nil, fmt.Errorf("controller: transaction already in progress")
	}
	s.txID = v.sched.NextTxID()
	v.begins.Add(1)
	if v.log != nil {
		if _, err := v.log.Append(recovery.Entry{User: s.user, TxID: s.txID, Class: recovery.ClassBegin}); err != nil {
			return nil, err
		}
	}
	return &backend.Result{}, nil
}

// execEndTx commits or aborts: the demarcation is sent to every backend
// (each no-ops if the transaction never started there).
func (s *Session) execEndTx(class sqlparser.StatementClass, st sqlparser.Statement) (*backend.Result, error) {
	v := s.vdb
	if s.txID == 0 {
		return nil, fmt.Errorf("controller: no transaction in progress")
	}
	txID := s.txID
	s.txID = 0
	if class == sqlparser.ClassCommit {
		v.commits.Add(1)
	} else {
		v.rollbacks.Add(1)
	}

	if d := v.distributorSnapshot(); d != nil {
		sql := "COMMIT"
		if class == sqlparser.ClassRollback {
			sql = "ROLLBACK"
		}
		return d.SubmitWrite(txID, class, sql)
	}

	outs, err := v.orderedWrite(txID, class, nil, st, "", s.user)
	if err != nil {
		return nil, err
	}
	return v.sched.WaitOutcomes(v.sched.Policy(), outs)
}

// dispatchEndTx enqueues the demarcation on its targets (the enabled
// backends orderedWrite resolved), delivering all outcomes on one shared
// channel. Must run inside the transaction's conflict-class critical section
// (orderedWrite).
func (v *VirtualDatabase) dispatchEndTx(txID uint64, class sqlparser.StatementClass, st sqlparser.Statement, targets []*backend.Backend) backend.Outcomes {
	outs := backend.NewOutcomes(len(targets))
	sql := "COMMIT"
	if class == sqlparser.ClassRollback {
		sql = "ROLLBACK"
	}
	for _, b := range targets {
		b.EnqueueWriteTo(txID, class, st, sql, outs.C)
	}
	return outs
}

// execWrite is the update path: macro rewriting, recovery logging, ordered
// dispatch to all backends hosting the affected tables, cache invalidation,
// then the early-response wait. The log records the statement's literal
// text, rendered from the shared tree and params; the backends execute the
// tree with params. Under early response the write outlives this call, so
// it owns a copy of params. Macro rewriting mutates the tree, so a statement
// with macros is cloned, bound and rewritten instead.
func (s *Session) execWrite(plan *plancache.Plan, params []sqlval.Value) (*backend.Result, error) {
	v := s.vdb
	v.writes.Add(1)

	st, sql := plan.Stmt, plan.SQL
	switch {
	case plan.HasMacros:
		st = st.Clone()
		if err := sqlparser.BindParams(st, params); err != nil {
			return nil, err
		}
		v.sched.RewriteMacros(st)
		sql = sqlparser.Render(st)
	case len(params) > 0:
		own := slices.Clone(params)
		sql = sqlparser.RenderParams(plan.Stmt, own)
		st = &sqlparser.Bound{Stmt: plan.Stmt, SQL: plan.SQL, Params: own}
	}

	if d := v.distributorSnapshot(); d != nil {
		return d.SubmitWrite(s.txID, sqlparser.ClassWrite, sql)
	}

	outs, err := v.orderedWrite(s.txID, sqlparser.ClassWrite, plan, st, sql, s.user)
	if err != nil {
		return nil, err
	}
	return v.sched.WaitOutcomes(v.sched.Policy(), outs)
}

// orderedWrite is the single conflict-class sequencing point shared by the
// local and distributed write paths: it computes the operation's conflict
// class (a write's table footprint; a demarcation's accumulated transaction
// footprint), enters that class's critical section, resolves the target
// backends (refusing the operation, unrecorded, when there are none), appends
// the recovery log entry (with the footprint, so replay can reconstruct the
// partial order), enqueues the operation on the backends, and leaves the
// critical section without waiting for execution. Holding the class locks
// across log append and enqueue guarantees every pair of conflicting
// operations is logged and enqueued to all backends in one consistent
// relative order; disjoint classes run this section concurrently.
//
// A write's conflict class and table footprint come from its plan (st is
// plan.Stmt, bound or macro-rewritten); a demarcation has no plan and locks
// its transaction's accumulated footprint instead.
func (v *VirtualDatabase) orderedWrite(txID uint64, class sqlparser.StatementClass, plan *plancache.Plan, st sqlparser.Statement, sql, user string) (backend.Outcomes, error) {
	var tables []string
	var global bool
	lc := recovery.ClassWrite
	demarcation := false
	switch class {
	case sqlparser.ClassCommit:
		lc = recovery.ClassCommit
		demarcation = true
	case sqlparser.ClassRollback:
		lc = recovery.ClassRollback
		demarcation = true
	}
	if demarcation {
		// Peek, not take: the footprint must stay registered until the
		// demarcation is inside its critical section, so that a
		// re-integration holding LockAllWrites observes TxActive == false
		// only for transactions whose demarcation is already in the log.
		// (Only this session's goroutine appends to the footprint, so the
		// peeked copy cannot go stale between here and the lock.)
		tables, global = v.sched.PeekTxFootprint(txID)
	} else {
		tables, global = plan.ConflictTables, plan.ConflictGlobal
	}

	ticket := v.sched.LockClass(tables, global)
	defer ticket.Unlock()
	var footprint []string
	var targets []*backend.Backend
	if demarcation {
		v.sched.ForgetTx(txID)
		// Same rule as a write: a demarcation no enabled backend can execute is
		// refused unlogged. Every replica's teardown has rolled the transaction
		// back, so a logged COMMIT would replay it as committed; with none,
		// catchUp sees an abandoned transaction and replays it rolled back.
		targets = v.Backends() // a private copy: filtered in place
		n := 0
		for _, b := range targets {
			if b.Enabled() {
				targets[n] = b
				n++
			}
		}
		targets = targets[:n]
		if n == 0 {
			return backend.Outcomes{}, ErrNoWriteTarget
		}
	} else if class == sqlparser.ClassWrite {
		// Resolve the targets before anything is recorded: a write refused
		// for want of an enabled host leaves no trace — not in the
		// transaction's footprint, not in the recovery log, where it would be
		// replayed into every later re-integration although its client was
		// told it failed.
		footprint = plan.Tables
		var err error
		if targets, err = v.writeTargets(footprint); err != nil {
			return backend.Outcomes{}, err
		}
		v.sched.NoteTxWrite(txID, tables, global)
	}
	if v.log != nil {
		logTables := tables
		if class == sqlparser.ClassWrite && global && len(logTables) == 0 {
			// Globally sequenced statements (DDL) still reference concrete
			// tables; record them so a partially-replicated backend's replay
			// can keep only the DDL it hosts. Global stays set — the entry
			// remains an ordering barrier.
			logTables = footprint
		}
		if _, err := v.log.Append(recovery.Entry{User: user, TxID: txID, Class: lc, SQL: sql, Tables: logTables, Global: global, V: recovery.FootprintVersion}); err != nil {
			return backend.Outcomes{}, err
		}
	}
	if class == sqlparser.ClassWrite {
		return v.dispatchWrite(txID, plan, st, sql, targets), nil
	}
	return v.dispatchEndTx(txID, class, st, targets), nil
}

// writeTargets returns, in dispatch order, the enabled backends hosting the
// tables a write affects, or ErrNoWriteTarget. Must run inside the write's
// conflict-class critical section, so that a placement flip (which holds the
// whole gate) falls before or after the write, never between its target
// choice and its enqueue.
func (v *VirtualDatabase) writeTargets(tables []string) ([]*backend.Backend, error) {
	targets := v.repl.WriteTargets(tables, v.backendList())
	if len(targets) == 0 {
		if _, ok := v.repl.(balancer.Placement); ok {
			// Placement, not health, is the cause: name the footprint so the
			// client can tell a routing impossibility from a dead cluster.
			return nil, fmt.Errorf("%w: %w", ErrNoWriteTarget, &balancer.NoHostError{Tables: tables})
		}
		return nil, ErrNoWriteTarget
	}
	// Deterministic dispatch order keeps logs and traces comparable. targets
	// may be the published list itself, so an unsorted one is sorted as a copy.
	byName := func(a, b *backend.Backend) int { return strings.Compare(a.Name(), b.Name()) }
	if !slices.IsSortedFunc(targets, byName) {
		targets = slices.Clone(targets)
		slices.SortFunc(targets, byName)
	}
	return targets, nil
}

// dispatchWrite enqueues a write on its targets (writeTargets) and maintains
// the dynamic schema and the cache, delivering all outcomes on one shared
// channel. Must run inside the write's conflict-class critical section
// (orderedWrite): conflicting writes invalidate the cache and enqueue in one
// consistent order, and DDL holds the class gate exclusively so schema
// maintenance never races a write.
func (v *VirtualDatabase) dispatchWrite(txID uint64, plan *plancache.Plan, st sqlparser.Statement, sql string, targets []*backend.Backend) backend.Outcomes {
	outs := backend.NewOutcomes(len(targets))
	for _, b := range targets {
		b.EnqueueWriteClassTo(txID, sqlparser.ClassWrite, st, sql, plan.ConflictTables, plan.ConflictGlobal, outs.C)
		v.loads.NoteWrite(plan.Tables, b.Name())
	}

	// Dynamic schema maintenance (§2.4.3: updated on each create or drop).
	ddl, _ := sqlparser.Unwrap(st)
	switch t := ddl.(type) {
	case *sqlparser.CreateTable:
		names := make([]string, len(targets))
		for i, b := range targets {
			names[i] = b.Name()
		}
		v.repl.NoteCreate(t.Table, names)
	case *sqlparser.DropTable:
		v.repl.NoteDrop(t.Table)
	}

	if v.cache != nil {
		v.cache.InvalidateWrite(st)
	}
	return outs
}

// execRead is the read path: result cache, then load-balanced read-one.
// The plan supplies the precomputed table and column footprint, so a cache
// admission does not re-analyze the statement, and the cache keys on the
// plan's text and params (st is plan.Stmt, or it bound to params).
func (v *VirtualDatabase) execRead(txID uint64, plan *plancache.Plan, st sqlparser.Statement, params []sqlval.Value) (*backend.Result, error) {
	v.reads.Add(1)
	if v.cache != nil && txID == 0 {
		if res := v.cache.GetParams(plan.SQL, params); res != nil {
			v.cacheHits.Add(1)
			return res, nil
		}
		v.cacheMisses.Add(1)
	}

	if v.dynamic {
		// The read barrier only matters when a placement move may drop a
		// copy out from under a routed read; static vdbs skip it.
		v.sched.BeginRead()
		defer v.sched.EndRead()
	} else {
		v.sched.GateRead()
		defer v.sched.UngateRead()
	}

	tables := plan.Tables
	var lastErr error
	// Retry on backend failure: the read fails over to another candidate
	// (the failed backend is disabled by its callback or explicitly here).
	for attempt := 0; attempt < 8; attempt++ {
		cands := v.repl.ReadCandidates(tables, v.backendList())
		b, err := v.bal.Choose(cands)
		if err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			if _, ok := v.repl.(balancer.Placement); ok && len(cands) == 0 {
				// No enabled backend hosts the read's full footprint (a
				// cross-partition join, or every host of a table down):
				// report the placement failure, not a generic no-backend.
				return nil, &balancer.NoHostError{Tables: tables}
			}
			return nil, err
		}
		res, err := b.Read(txID, st, plan.SQL)
		if err == nil {
			v.loads.NoteRead(tables, b.Name())
			if v.cache != nil && txID == 0 {
				v.cache.PutParams(plan.SQL, params, plan.Tables, plan.ReadCols, plan.ReadColsOK, res)
			}
			return res, nil
		}
		lastErr = err
		if errors.Is(err, backend.ErrDisabled) || errors.Is(err, backend.ErrClosed) {
			continue
		}
		if txID != 0 {
			// Inside a transaction the read is pinned to transactional
			// state; failing over silently would lose isolation.
			return nil, err
		}
		// Engine-level errors (bad SQL, missing table) are not failover
		// material: every replica would answer the same.
		if IsSemanticError(err) {
			return nil, err
		}
		// Reads are retryable, so a read failure only raises suspicion;
		// the monitor disables the backend once the consecutive-failure
		// threshold trips (1 by default — the classic one-strike rule).
		v.health.failure(b.Name())
	}
	return nil, lastErr
}

// IsSemanticError distinguishes statement errors (identical on every
// replica, so failover is pointless and disabling a backend would be wrong)
// from backend faults. The engine, parser, value layer and backend export
// errors.Is-able sentinels, so the classification survives message-text
// changes. Exported for the wire protocol, which carries the class to the
// client so that it also survives a controller-to-controller hop.
func IsSemanticError(err error) bool {
	return errors.Is(err, senterr.ErrSemantic) ||
		errors.Is(err, sqlparser.ErrParse) ||
		errors.Is(err, sqlval.ErrValue) ||
		errors.Is(err, backend.ErrStatement)
}

func (v *VirtualDatabase) distributorSnapshot() Distributor {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.distributor
}

// ApplyDelivery applies one totally ordered write delivery through the
// conflict-class sequencer the local path uses (orderedWrite). The
// distributed applier calls it once per delivery, in delivery order, so
// every controller sequences the same operations in the same order. The
// parsing cache is consulted but not populated: ordered writes arrive with
// parameters already rendered as literals, so their texts rarely repeat and
// would only churn the LRU. It returns at the enqueue, never waiting on
// backend execution, so a transactional write waiting on database locks
// cannot stall the delivery of the commit that would release them.
func (v *VirtualDatabase) ApplyDelivery(txID uint64, class sqlparser.StatementClass, sql, user string) (backend.Outcomes, error) {
	switch class {
	case sqlparser.ClassCommit:
		return v.orderedWrite(txID, class, nil, &sqlparser.Commit{}, sql, user)
	case sqlparser.ClassRollback:
		return v.orderedWrite(txID, class, nil, &sqlparser.Rollback{}, sql, user)
	}
	key := plancache.Normalize(sql)
	plan := v.plans.Get(key)
	if plan == nil {
		st, err := sqlparser.Parse(key)
		if err != nil {
			return backend.Outcomes{}, err
		}
		plan = plancache.Build(key, st)
	}
	return v.orderedWrite(txID, class, plan, plan.Stmt, sql, user)
}

// WaitPolicy applies the virtual database's early-response policy to a
// cluster write's shared outcome channel (exported for the distributed
// request manager).
func (v *VirtualDatabase) WaitPolicy(outs backend.Outcomes) (*backend.Result, error) {
	return v.sched.WaitOutcomes(v.sched.Policy(), outs)
}

// AbortSessionTx releases a transaction's backend connections without going
// through SQL, used when a network session dies.
func (v *VirtualDatabase) AbortSessionTx(txID uint64) {
	v.sched.ForgetTx(txID)
	for _, b := range v.Backends() {
		b.AbortTx(txID)
	}
}
