// Package cjdbc is a Go reproduction of C-JDBC (Cecchet, Marguerite and
// Zwaenepoel, USENIX 2004): flexible database clustering middleware. It
// turns a collection of database backends into a single virtual database
// behind a uniform driver interface, using read-one/write-all replication
// with pluggable load balancing, an optional strongly- or loosely-consistent
// query result cache, a recovery log with checkpointing, horizontal
// scalability (controllers replicated over totally ordered group
// communication) and vertical scalability (controllers nested as each
// other's backends).
//
// Quick start:
//
//	ctrl := cjdbc.NewController("ctrl0", 1)
//	vdb, _ := ctrl.CreateVirtualDatabase(cjdbc.VirtualDatabaseConfig{Name: "mydb"})
//	vdb.AddInMemoryBackend("db0")
//	vdb.AddInMemoryBackend("db1")
//	sess, _ := vdb.OpenSession("user", "")
//	sess.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)")
//	sess.Exec("INSERT INTO t (id, v) VALUES (?, ?)", 1, "hello")
//	rows, _ := sess.Query("SELECT v FROM t WHERE id = ?", 1)
package cjdbc

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/cache"
	"cjdbc/internal/controller"
	"cjdbc/internal/distributed"
	"cjdbc/internal/groupcomm"
	"cjdbc/internal/netproto"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
)

// Controller hosts virtual databases and optionally serves them over TCP.
type Controller struct {
	inner  *controller.Controller
	server *netproto.Server

	mu   sync.Mutex
	logs []recovery.Log // the recovery logs CreateVirtualDatabase opened; Close closes them
}

// NewController creates a controller. The numeric id must be unique among
// controllers sharing a distributed virtual database.
func NewController(name string, id uint16) *Controller {
	return &Controller{inner: controller.New(name, id)}
}

// Name returns the controller name.
func (c *Controller) Name() string { return c.inner.Name() }

// VirtualDatabaseConfig configures one virtual database.
type VirtualDatabaseConfig struct {
	// Name identifies the virtual database to connecting drivers.
	Name string

	// Users maps virtual logins to passwords; empty accepts everyone.
	Users map[string]string

	// PartialReplication maps table -> backend names hosting it (RAIDb-2,
	// §2.4.3). Empty means full replication unless PartialByTables is set;
	// a backend declaring a hosted-table subset with WithTables needs one of
	// the two. Declared tables keep their placement authoritative: dynamic
	// schema gathering never overrides it.
	// Tables found on backends at enable time are merged in (dynamic schema
	// gathering); tables in neither source replicate fully.
	PartialReplication map[string][]string

	// PartialByTables switches to partial replication even when
	// PartialReplication is empty, so placement can be declared entirely
	// per-backend through WithTables. Implied by a non-empty
	// PartialReplication map.
	PartialByTables bool

	// LoadBalancer is "rr" (round robin, the default), "lprf" (least
	// pending requests first) or "wrr" (weighted round robin).
	LoadBalancer string

	// Cache enables the query result cache when non-nil.
	Cache *CacheConfig

	// RecoveryLogPath stores the recovery log in a flat file; "memory"
	// keeps it in process memory; "" disables logging (and with it
	// checkpointing).
	RecoveryLogPath string

	// EarlyResponse is "all" (default), "first" or "majority" (§2.4.4).
	EarlyResponse string

	// Health configures failure monitoring and automatic re-integration.
	// Nil keeps the classic behavior: one-strike disable on any failure, no
	// probing, and re-integration only through explicit RestoreBackend
	// calls.
	Health *HealthConfig

	// Placement configures the load-driven placement policy for partially
	// replicated virtual databases: hot tables gain replicas, cold tables
	// shed them, all under live traffic. Nil disables the policy; manual
	// AddTableHost/RemoveTableHost moves always work under partial
	// replication.
	Placement *PlacementConfig
}

// HealthConfig tunes the per-backend health monitor and the automatic
// re-integration supervisor. Failed reads and probes raise suspicion and
// disable a backend only at SuspectThreshold consecutive failures; failed
// writes always disable immediately (no 2PC — a backend that missed a write
// the others applied has already diverged, §2.4.1).
type HealthConfig struct {
	// SuspectThreshold is the number of consecutive read/probe failures
	// that disables a backend (default 1, the classic one-strike rule).
	SuspectThreshold int
	// ProbeInterval enables a periodic liveness ping of every enabled
	// backend; 0 disables probing.
	ProbeInterval time.Duration
	// AutoReintegrate starts a supervisor that brings disabled backends
	// back automatically: restore from the latest backup (or from a
	// snapshot of the serving backends if none is cached; no backend goes
	// off-line for it), replay the recovery log, re-enable — all under live
	// traffic. Requires a recovery log.
	AutoReintegrate bool
	// ReintegrateBackoff is the delay before the first re-integration
	// attempt, doubled each failed attempt up to ReintegrateBackoffCap
	// (defaults 50ms / 2s).
	ReintegrateBackoff    time.Duration
	ReintegrateBackoffCap time.Duration
	// ReintegrateAttempts caps the attempts before the backend is marked
	// permanently failed; 0 means the default (8), negative retries
	// forever.
	ReintegrateAttempts int
}

// PlacementConfig tunes the load-driven placement policy. Once per
// ObserveWindow the policy snapshots per-table read/write counters; a table
// read at least HotTableThreshold times in the window gains a replica on the
// least-loaded enabled backend not hosting it, and a table whose total
// traffic stayed at or under ColdTableThreshold sheds one surplus replica.
// At most one move is in flight at a time.
type PlacementConfig struct {
	// HotTableThreshold is the per-window read count at or above which a
	// table is replicated onto one more backend; 0 disables replication
	// moves.
	HotTableThreshold uint64
	// ColdTableThreshold is the per-window total traffic at or below which a
	// table with two or more hosts sheds one; 0 disables shedding.
	ColdTableThreshold uint64
	// ObserveWindow is how often load is sampled; <= 0 disables the policy
	// goroutine entirely.
	ObserveWindow time.Duration
	// Cooldown is the minimum delay between two policy-driven moves.
	Cooldown time.Duration
}

// CacheConfig configures the query result cache (§2.4.2).
type CacheConfig struct {
	// Granularity is "database", "table" (default) or "column".
	Granularity string
	// MaxEntries bounds the cache (default 4096), and its bytes at 4 KiB per entry.
	MaxEntries int
	// Staleness relaxes consistency: entries may serve stale data for up
	// to this duration; 0 keeps strong consistency.
	Staleness time.Duration
}

// VirtualDatabase is the single-database view the middleware exposes.
type VirtualDatabase struct {
	inner *controller.VirtualDatabase
	dist  *distributed.VDB
}

// CreateVirtualDatabase registers a virtual database on the controller.
func (c *Controller) CreateVirtualDatabase(cfg VirtualDatabaseConfig) (*VirtualDatabase, error) {
	var repl *balancer.PartialReplication
	if len(cfg.PartialReplication) > 0 || cfg.PartialByTables {
		repl = balancer.NewPartialReplication(cfg.PartialReplication)
	}
	bal, err := balancer.New(cfg.LoadBalancer)
	if err != nil {
		return nil, err
	}
	var rc *cache.ResultCache
	if cfg.Cache != nil {
		gran := cache.GranTable
		switch strings.ToLower(cfg.Cache.Granularity) {
		case "", "table":
		case "database":
			gran = cache.GranDatabase
		case "column":
			gran = cache.GranColumn
		default:
			return nil, fmt.Errorf("cjdbc: unknown cache granularity %q", cfg.Cache.Granularity)
		}
		rc = cache.New(cache.Config{
			Granularity: gran,
			MaxEntries:  cfg.Cache.MaxEntries,
			Staleness:   cfg.Cache.Staleness,
		})
	}
	var early controller.ResponsePolicy
	switch strings.ToLower(cfg.EarlyResponse) {
	case "", "all":
		early = controller.ResponseAll
	case "first":
		early = controller.ResponseFirst
	case "majority":
		early = controller.ResponseMajority
	default:
		return nil, fmt.Errorf("cjdbc: unknown early-response policy %q", cfg.EarlyResponse)
	}
	auth := controller.NewAuthManager()
	for u, p := range cfg.Users {
		auth.AddUser(u, p)
	}
	var health controller.HealthConfig
	if cfg.Health != nil {
		health = controller.HealthConfig{
			SuspectThreshold:      cfg.Health.SuspectThreshold,
			ProbeInterval:         cfg.Health.ProbeInterval,
			AutoReintegrate:       cfg.Health.AutoReintegrate,
			ReintegrateBackoff:    cfg.Health.ReintegrateBackoff,
			ReintegrateBackoffCap: cfg.Health.ReintegrateBackoffCap,
			ReintegrateAttempts:   cfg.Health.ReintegrateAttempts,
		}
	}
	var placement controller.PlacementPolicy
	if cfg.Placement != nil {
		placement = controller.PlacementPolicy{
			HotTableThreshold:  cfg.Placement.HotTableThreshold,
			ColdTableThreshold: cfg.Placement.ColdTableThreshold,
			ObserveWindow:      cfg.Placement.ObserveWindow,
			Cooldown:           cfg.Placement.Cooldown,
		}
	}
	// The log opens last, so that only AddVirtualDatabase can fail after it.
	var log recovery.Log
	switch cfg.RecoveryLogPath {
	case "":
	case "memory":
		log = recovery.NewMemoryLog()
	default:
		log, err = recovery.OpenFileLog(cfg.RecoveryLogPath)
		if err != nil {
			return nil, err
		}
	}
	inner, err := c.inner.AddVirtualDatabase(controller.VDBConfig{
		Name:          cfg.Name,
		Replication:   repl,
		Balancer:      bal,
		Cache:         rc,
		RecoveryLog:   log,
		EarlyResponse: early,
		ParallelTx:    true,
		Auth:          auth,
		Health:        health,
		Placement:     placement,
	})
	if err != nil {
		if log != nil {
			_ = log.Close() // err is the failure to report
		}
		return nil, err
	}
	if log != nil {
		c.mu.Lock()
		c.logs = append(c.logs, log)
		c.mu.Unlock()
	}
	return &VirtualDatabase{inner: inner}, nil
}

// VirtualDatabase looks up a previously created virtual database.
func (c *Controller) VirtualDatabase(name string) (*VirtualDatabase, error) {
	v, err := c.inner.VirtualDatabase(name)
	if err != nil {
		return nil, err
	}
	return &VirtualDatabase{inner: v}, nil
}

// ListenAndServe exposes the controller's virtual databases over TCP for
// remote drivers. addr may use port 0; the bound address is returned.
func (c *Controller) ListenAndServe(addr string) (string, error) {
	if c.server == nil {
		c.server = netproto.NewServer(c.inner)
	}
	return c.server.Listen(addr)
}

// Close shuts down the network server (if any) and every backend, then
// closes the recovery logs CreateVirtualDatabase opened.
func (c *Controller) Close() {
	if c.server != nil {
		c.server.Close()
	}
	c.inner.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, log := range c.logs {
		_ = log.Close() // Close has no error to return it in
	}
	c.logs = nil
}

// Internal exposes the underlying controller for advanced wiring (admin
// endpoint, benchmarks).
func (c *Controller) Internal() *controller.Controller { return c.inner }

// BackendOption tunes a backend added to a virtual database.
type BackendOption func(*backend.Config)

// WithWeight sets the weighted-round-robin weight.
func WithWeight(w int) BackendOption {
	return func(c *backend.Config) { c.Weight = w }
}

// WithMaxConns bounds the backend's connection pool.
func WithMaxConns(n int) BackendOption {
	return func(c *backend.Config) { c.MaxConns = n }
}

// WithTables declares the subset of the virtual database's tables this
// backend hosts (RAIDb-2 partial replication). The virtual database must
// use partial replication (a non-empty PartialReplication map, or
// PartialByTables). Reads route to the backend only when it hosts the
// statement's whole footprint, writes and recovery streams reach it only
// for hosted tables, and backups and restores transfer only the hosted
// subset. Use ValidatePlacement after adding all backends to check that
// every declared table has at least one host.
func WithTables(tables ...string) BackendOption {
	return func(c *backend.Config) { c.Tables = append(c.Tables, tables...) }
}

// NoHostError is the typed failure of partial replication routing: no
// enabled backend hosts the statement's whole footprint (a read joining
// tables placed on disjoint backends, or a write whose every host is
// down). Extract it with errors.As to learn the offending tables.
type NoHostError = balancer.NoHostError

// LastHostError is the typed refusal of a placement move that would leave a
// table with no enabled host. Extract it with errors.As to learn the table
// and the host whose removal was refused.
type LastHostError = balancer.LastHostError

// AddInMemoryBackend creates a fresh in-process SQL engine and attaches it
// as a backend, returning the engine's name.
func (v *VirtualDatabase) AddInMemoryBackend(name string, opts ...BackendOption) error {
	eng := sqlengine.New(name)
	return v.addDriverBackend(name, &backend.EngineDriver{Engine: eng}, opts...)
}

// AddEngineBackend attaches an existing SQL engine as a backend (useful
// when several controllers share physical backends, as in the budget
// high-availability deployment of §5.1).
func (v *VirtualDatabase) AddEngineBackend(name string, eng *sqlengine.Engine, opts ...BackendOption) error {
	return v.addDriverBackend(name, &backend.EngineDriver{Engine: eng}, opts...)
}

// AddClusterBackend attaches another virtual database (reached through dsn,
// a cjdbc:// URL) as a backend: this is vertical scalability (§4.2), where
// the C-JDBC driver is re-injected into the controller as a native driver.
func (v *VirtualDatabase) AddClusterBackend(name, dsn string, opts ...BackendOption) error {
	return v.addDriverBackend(name, &clusterDriver{dsn: dsn}, opts...)
}

func (v *VirtualDatabase) addDriverBackend(name string, d backend.Driver, opts ...BackendOption) error {
	cfg := backend.Config{Name: name, Driver: d}
	for _, o := range opts {
		o(&cfg)
	}
	b := backend.New(cfg)
	return v.inner.AddBackend(b)
}

// Name returns the virtual database name.
func (v *VirtualDatabase) Name() string { return v.inner.Name() }

// Internal exposes the wrapped virtual database for benchmarks and tests.
func (v *VirtualDatabase) Internal() *controller.VirtualDatabase { return v.inner }

// JoinGroup attaches the virtual database to a named controller group for
// horizontal scalability (§4.1): writes are synchronized with total order
// across every controller in the group. Controllers in one process find
// groups by name; controllerName must be unique within the group.
func (v *VirtualDatabase) JoinGroup(groupName, controllerName string) error {
	g := groupcomm.DefaultRegistry.Get(groupName)
	d, err := distributed.Join(v.inner, g, controllerName)
	if err != nil {
		return err
	}
	v.dist = d
	return nil
}

// LeaveGroup detaches from the controller group.
func (v *VirtualDatabase) LeaveGroup() {
	if v.dist != nil {
		v.dist.Leave()
		v.dist = nil
	}
}

// ValidatePlacement checks the declared table placement against the
// attached backends: every declared table must be hosted by at least one of
// them and every host name must match a backend. Call it after the last
// AddBackend. A no-op under full replication.
func (v *VirtualDatabase) ValidatePlacement() error {
	return v.inner.ValidatePlacement()
}

// AddTableHost replicates one table onto one more backend under live
// traffic (RAIDb-2 dynamic placement): the copy is bootstrapped from an
// enabled donor and caught up through the recovery log, and routing flips to
// include the new host only once the copy is provably current. Requires
// partial replication.
func (v *VirtualDatabase) AddTableHost(table, backendName string) error {
	return v.inner.AddTableHost(table, backendName)
}

// RemoveTableHost sheds one replica of a table under live traffic: routing
// flips away first, in-flight work drains, then the copy is dropped.
// Removing the last enabled host is refused with a LastHostError.
func (v *VirtualDatabase) RemoveTableHost(table, backendName string) error {
	return v.inner.RemoveTableHost(table, backendName)
}

// Checkpoint writes a named marker into the recovery log.
func (v *VirtualDatabase) Checkpoint(name string) error {
	_, err := v.inner.Checkpoint(name)
	return err
}

// BackupBackend takes an online backup of one backend (§3.1) and returns a
// portable dump that can re-integrate failed or new backends. The recovery
// log keeps the dump's replay window until a newer backup replaces it.
func (v *VirtualDatabase) BackupBackend(backendName, checkpointName string) (*recovery.Dump, error) {
	return v.inner.BackupBackend(backendName, checkpointName)
}

// RestoreBackend re-integrates a backend from a dump plus log replay. With a
// nil dump the virtual database finds one itself, as automatic
// re-integration does. A dump whose replay window the log no longer keeps
// is refused with recovery.ErrLogTruncated before anything changes.
func (v *VirtualDatabase) RestoreBackend(backendName string, dump *recovery.Dump) error {
	return v.inner.RestoreBackend(backendName, dump)
}

// DisableBackend removes a backend from service.
func (v *VirtualDatabase) DisableBackend(name string) { v.inner.DisableBackend(name) }

// BackendStates reports each backend's lifecycle state.
func (v *VirtualDatabase) BackendStates() map[string]string {
	out := make(map[string]string)
	for _, b := range v.inner.Backends() {
		out[b.Name()] = b.State().String()
	}
	return out
}

// BackendHealth reports each backend's health-monitor status (healthy,
// suspect, down, recovering or failed).
func (v *VirtualDatabase) BackendHealth() map[string]string {
	out := make(map[string]string)
	for _, b := range v.inner.Backends() {
		out[b.Name()] = v.inner.BackendHealth(b.Name()).String()
	}
	return out
}
