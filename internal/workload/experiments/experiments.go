// Package experiments reproduces the paper's evaluation (§6) by demand
// accounting: Figures 10, 11 and 12 (TPC-W throughput against the number
// of backends, full and partial replication) and Table 1 (the RUBiS
// bidding mix with the query result cache off, coherent and relaxed).
//
// Every statement a backend executes adds its cost units to that backend's
// meter, which wraps the engine's driver; the controller's demand is priced
// from the request, cache-hit and invalidation counters the controller and
// its result cache keep anyway. Nothing sleeps. One seeded, sequential run of the real controller, the real workload clients
// and the real replication policy measures D_k, the demand one interaction
// places on backend k, and operational analysis bounds a closed system's
// throughput at X_max = 1 / max_k D_k (Denning & Buzen, 1978). The figures
// are X_max(n) / X_max(1); Table 1 is backend and controller demand per
// interaction. The run is deterministic, so the numbers are identical on
// every machine and every run.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"cjdbc"
	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/cache"
	"cjdbc/internal/controller"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/workload/rubis"
	"cjdbc/internal/workload/tpcw"
)

// The shape of every accounting run: a fixed database, a fixed client
// population driven round-robin from one goroutine, and one seed.
const (
	seed = 42

	tpcwClients      = 12
	tpcwInteractions = 40 // per client

	rubisClients      = 30
	rubisInteractions = 100 // per client

	// relaxedStaleness is the relaxed cache's staleness limit (the paper's
	// one minute); an accounting run ends long before it expires anything.
	relaxedStaleness = time.Minute
)

var (
	tpcwScale  = tpcw.Scale{Items: 60, Customers: 60, Authors: 12}
	rubisScale = rubis.Scale{Users: 50, Items: 100, Categories: 8, Regions: 4}
)

// Nodes are the backend counts each figure reports.
var Nodes = []int{1, 2, 4, 6}

// The weights price each statement class in abstract cost units, standing
// in for the disk and CPU costs of the paper's PII-450 database machines.
// They mirror the relative costs of the TPC-W queries on the paper's
// testbed: single-row writes are far cheaper than the search and display
// queries that dominate database time, and the best-seller temporary table
// is the most expensive broadcast operation (it embeds an aggregation),
// which is what bends the browsing mix's full-replication curve sub-linear
// in Figure 10. The weights aim at the paper's 5.3x ordering-mix speed-up
// over six replicas; this accounting gives 3.90x for full and 4.26x for
// partial replication, so the weights undershoot the figure they aim at.
const (
	pointRead  = 1    // indexed single-table read
	scanRead   = 6    // non-indexed or multi-table read
	heavyRead  = 12   // aggregation / GROUP BY read
	write      = 0.25 // INSERT/UPDATE/DELETE
	tempTable  = 3    // CREATE TEMPORARY TABLE ... AS SELECT (best seller)
	ddl        = 0.4  // other DDL
	txOverhead = 0.2  // begin/commit/rollback
)

// cost returns the cost units of one statement.
func cost(st sqlparser.Statement) float64 {
	st, _ = sqlparser.Unwrap(st)
	switch s := st.(type) {
	case *sqlparser.Select:
		if len(s.GroupBy) > 0 || hasAggregateItems(s) {
			return heavyRead
		}
		if len(s.From) > 1 || s.Where == nil {
			return scanRead
		}
		return pointRead
	case *sqlparser.Insert, *sqlparser.Update, *sqlparser.Delete:
		return write
	case *sqlparser.CreateTable:
		if s.Temporary || s.AsSelect != nil {
			return tempTable
		}
		return ddl
	case *sqlparser.DropTable, *sqlparser.CreateIndex, *sqlparser.DropIndex:
		return ddl
	case *sqlparser.Begin, *sqlparser.Commit, *sqlparser.Rollback:
		return txOverhead
	}
	return scanRead
}

func hasAggregateItems(s *sqlparser.Select) bool {
	for _, it := range s.Items {
		if it.Expr != nil && it.Expr.HasAggregate() {
			return true
		}
	}
	return false
}

// meteredDriver is the engine's driver with a demand meter: every
// connection it opens charges each statement it executes, and each commit
// or rollback, to the meter. Embedding the engine driver forwards
// backend.SchemaProvider, so the backend gathers its schema from metadata
// and not by a metered SHOW TABLES.
type meteredDriver struct {
	*backend.EngineDriver
	units atomic.Int64 // cost units charged, in millionths
}

var _ backend.SchemaProvider = (*meteredDriver)(nil)

// demandScale is the fixed-point scale of a meter; integer accumulation
// keeps the total independent of the order charges land in.
const demandScale = 1e6

func (d *meteredDriver) charge(units float64) { d.units.Add(int64(math.Round(units * demandScale))) }

// demand returns the cost units charged so far.
func (d *meteredDriver) demand() float64 { return float64(d.units.Load()) / demandScale }

// engineConn is everything the backend type-asserts on a connection. The
// engine's connection implements all of it, and the meter's must too: a
// backend that finds TicketReserver or ConnResetter missing falls back to
// execution-time locking on pooled connections, which is a different program.
type engineConn interface {
	backend.Conn
	backend.LockReserver
	backend.TicketReserver
	backend.ConnResetter
	backend.ConnKiller
}

func (d *meteredDriver) Open() (backend.Conn, error) {
	c, err := d.EngineDriver.Open()
	if err != nil {
		return nil, err
	}
	return &meteredConn{engineConn: c.(engineConn), d: d}, nil
}

type meteredConn struct {
	engineConn
	d *meteredDriver
}

func (c *meteredConn) Exec(st sqlparser.Statement, sql string) (*backend.Result, error) {
	c.d.charge(cost(st))
	return c.engineConn.Exec(st, sql)
}

// Commit and Rollback are charged by class: the backend ends a transaction
// without a statement, and a forced abort has none to give.
func (c *meteredConn) Commit() error {
	c.d.charge(txOverhead)
	return c.engineConn.Commit()
}

func (c *meteredConn) Rollback() error {
	c.d.charge(txOverhead)
	return c.engineConn.Rollback()
}

// The controller's CPU per request, per cache hit and per invalidated cache
// entry: serving a hit and invalidating entries is controller work, the
// "C-JDBC CPU" row of Table 1. unit, the nominal duration of one cost unit,
// converts them into the backends' units.
const (
	perRequest      = 25 * time.Microsecond
	perCacheHit     = 50 * time.Microsecond
	perInvalidation = 125 * time.Microsecond

	unit = time.Millisecond
)

// ctrlBusy prices the work the controller has done so far from the counters
// it and its result cache keep.
func ctrlBusy(v *controller.VirtualDatabase) time.Duration {
	st := v.StatsSnapshot()
	busy := time.Duration(st.Reads+st.Writes+st.Begins+st.Commits+st.Rollbacks)*perRequest +
		time.Duration(st.CacheHits)*perCacheHit
	if c := v.Cache(); c != nil {
		busy += time.Duration(c.StatsSnapshot().Invalidations) * perInvalidation
	}
	return busy
}

// leastDemand routes each read to the candidate whose meter, found by
// backend name, shows the least accumulated demand, first in order on ties.
// It is the deterministic image of least-pending-requests-first at
// saturation: there the backend with the fewest pending requests is the one
// with the least work queued.
type leastDemand map[string]*meteredDriver

func (leastDemand) Name() string { return "least-demand" }

func (m leastDemand) Choose(cands []*backend.Backend) (*backend.Backend, error) {
	if len(cands) == 0 {
		return nil, balancer.ErrNoBackend
	}
	best := cands[0]
	for _, b := range cands[1:] {
		if m[b.Name()].demand() < m[best.Name()].demand() {
			best = b
		}
	}
	return best, nil
}

// Point is what one run placed on the cluster, the loading phase excluded.
type Point struct {
	Interactions int       // completed interactions
	Failed       int       // interactions that returned an error
	Requests     int       // SQL requests of the completed interactions
	Demand       []float64 // cost units per backend
	Ops          []int64   // operations per backend
	Ctrl         float64   // controller demand, in cost units
}

// Bottleneck is max_k D_k: the demand one interaction places on the
// busiest backend, whose reciprocal bounds throughput.
func (p Point) Bottleneck() float64 {
	var m float64
	for _, d := range p.Demand {
		m = max(m, d)
	}
	return m / float64(p.Interactions)
}

// BackendDemand is the demand one interaction places on all backends.
func (p Point) BackendDemand() float64 {
	var s float64
	for _, d := range p.Demand {
		s += d
	}
	return s / float64(p.Interactions)
}

// CtrlDemand is the controller demand of one interaction.
func (p Point) CtrlDemand() float64 { return p.Ctrl / float64(p.Interactions) }

// Speedup is X_max(p) / X_max(base).
func Speedup(base, p Point) float64 { return base.Bottleneck() / p.Bottleneck() }

// interactor is one emulated browser.
type interactor interface {
	Interaction() (int, error)
}

// newVDB adds to ctrl a virtual database of n metered in-memory backends
// named db0..db(n-1), routed by leastDemand with synchronous write
// responses, and returns it with its meters.
func newVDB(ctrl *cjdbc.Controller, cfg controller.VDBConfig, n int) (*cjdbc.VirtualDatabase, leastDemand, error) {
	meters := make(leastDemand, n)
	cfg.Balancer = meters
	cfg.EarlyResponse = controller.ResponseAll
	cfg.ParallelTx = true
	inner, err := ctrl.Internal().AddVirtualDatabase(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("db%d", i)
		meters[name] = &meteredDriver{EngineDriver: &backend.EngineDriver{Engine: sqlengine.New(name)}}
		if err := inner.AddBackend(backend.New(backend.Config{Name: name, Driver: meters[name]})); err != nil {
			return nil, nil, err
		}
	}
	vdb, err := ctrl.VirtualDatabase(cfg.Name)
	return vdb, meters, err
}

// run loads the database, then drives clients × perClient interactions
// round-robin and returns what they placed on the cluster.
func run(vdb *cjdbc.VirtualDatabase, meters leastDemand, load func(cjdbc.Session) error, clients, perClient int,
	newClient func(id int, sess cjdbc.Session, rng *rand.Rand) interactor) (Point, error) {
	loader, err := vdb.OpenSession("load", "")
	if err != nil {
		return Point{}, err
	}
	err = load(loader)
	loader.Close()
	if err != nil {
		return Point{}, err
	}

	sessions := make([]cjdbc.Session, clients)
	browsers := make([]interactor, clients)
	defer func() {
		for _, s := range sessions {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := range browsers {
		if sessions[i], err = vdb.OpenSession("client", ""); err != nil {
			return Point{}, err
		}
		browsers[i] = newClient(i, sessions[i], rand.New(rand.NewSource(seed+int64(i)*7919)))
	}

	inner := vdb.Internal()
	bs := inner.Backends()
	d0, o0, c0 := make([]float64, len(bs)), make([]int64, len(bs)), ctrlBusy(inner)
	for i, b := range bs {
		d0[i], o0[i] = meters[b.Name()].demand(), b.Ops()
	}
	var p Point
	for r := 0; r < perClient; r++ {
		for _, c := range browsers {
			n, err := c.Interaction()
			if err != nil {
				p.Failed++
				continue
			}
			p.Interactions++
			p.Requests += n
		}
	}
	p.Demand, p.Ops = make([]float64, len(bs)), make([]int64, len(bs))
	for i, b := range bs {
		p.Demand[i], p.Ops[i] = meters[b.Name()].demand()-d0[i], b.Ops()-o0[i]
	}
	p.Ctrl = float64(ctrlBusy(inner)-c0) / float64(unit)
	return p, nil
}

// RunTPCW accounts one point of Figures 10-12: the mix on nodes backends
// under "full" or "partial" replication. Partial replication is the
// paper's Figure 10 configuration: the order-path tables (and with them
// the best-seller temporary tables) live on two backends only, everything
// else everywhere; on one backend it is full replication.
func RunTPCW(mix tpcw.Mix, repl string, nodes int) (Point, error) {
	cfg := controller.VDBConfig{Name: "tpcw"}
	if repl == "partial" && nodes >= 2 {
		all := make([]string, nodes)
		for i := range all {
			all[i] = fmt.Sprintf("db%d", i)
		}
		placement := make(map[string][]string)
		for _, t := range tpcw.Tables {
			placement[t] = all
		}
		for _, t := range tpcw.OrderTables {
			placement[t] = all[:2]
		}
		cfg.Replication = balancer.NewPartialReplication(placement)
	}
	ctrl := cjdbc.NewController("experiments", 1)
	defer ctrl.Close()
	vdb, meters, err := newVDB(ctrl, cfg, nodes)
	if err != nil {
		return Point{}, err
	}
	alloc := tpcw.NewIDAllocator(int64(tpcwScale.Items+tpcwScale.Customers+tpcwScale.Orders()*4) + 1000)
	return run(vdb, meters, func(s cjdbc.Session) error { return tpcw.Load(s, tpcwScale, seed) },
		tpcwClients, tpcwInteractions,
		func(id int, sess cjdbc.Session, rng *rand.Rand) interactor {
			return tpcw.NewClient(id, sess, tpcwScale, mix, rng, alloc)
		})
}

// FigureRow is one backend count of a figure.
type FigureRow struct {
	Nodes         int
	Full, Partial Point
}

// RunFigure accounts every point of one of Figures 10-12.
func RunFigure(mix tpcw.Mix) ([]FigureRow, error) {
	rows := make([]FigureRow, 0, len(Nodes))
	for _, n := range Nodes {
		row := FigureRow{Nodes: n}
		var err error
		if row.Full, err = RunTPCW(mix, "full", n); err != nil {
			return nil, fmt.Errorf("experiments: full %d nodes: %w", n, err)
		}
		row.Partial = row.Full
		if n >= 2 {
			if row.Partial, err = RunTPCW(mix, "partial", n); err != nil {
				return nil, fmt.Errorf("experiments: partial %d nodes: %w", n, err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFigure renders a figure as speed-ups over one backend, with the
// bottleneck demand they come from.
func FormatFigure(mix tpcw.Mix, rows []FigureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TPC-W %s mix (%.0f%% read-only): speed-up X_max(n)/X_max(1), X_max = 1/max_k D_k\n",
		mix, mix.ReadOnlyFraction()*100)
	fmt.Fprintf(&b, "%-6s %8s %8s %14s %14s\n", "nodes", "full", "partial", "D_max full", "D_max partial")
	base := rows[0].Full
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %7.2fx %7.2fx %14.3f %14.3f\n", r.Nodes,
			Speedup(base, r.Full), Speedup(base, r.Partial), r.Full.Bottleneck(), r.Partial.Bottleneck())
	}
	return b.String()
}

// Table 1's cache configurations.
const (
	NoCache  = "no cache"
	Coherent = "coherent cache"
	Relaxed  = "relaxed cache"
)

// RunTable1 accounts the RUBiS bidding mix on one backend with the result
// cache in mode (NoCache, Coherent or Relaxed) at the given invalidation
// granularity (ignored without a cache).
func RunTable1(mode string, granularity cache.Granularity) (Point, error) {
	cfg := controller.VDBConfig{Name: "rubis"}
	switch mode {
	case Coherent:
		cfg.Cache = cache.New(cache.Config{Granularity: granularity, MaxEntries: 16384})
	case Relaxed:
		cfg.Cache = cache.New(cache.Config{Granularity: granularity, MaxEntries: 16384, Staleness: relaxedStaleness})
	}
	ctrl := cjdbc.NewController("experiments", 1)
	defer ctrl.Close()
	vdb, meters, err := newVDB(ctrl, cfg, 1)
	if err != nil {
		return Point{}, err
	}
	alloc := rubis.NewIDAllocator(int64(rubisScale.Users+rubisScale.Items*4) + 1000)
	return run(vdb, meters, func(s cjdbc.Session) error { return rubis.Load(s, rubisScale, seed) },
		rubisClients, rubisInteractions,
		func(_ int, sess cjdbc.Session, rng *rand.Rand) interactor {
			return rubis.NewClient(sess, rubisScale, rng, alloc)
		})
}

// Table1Row is one column of Table 1, or one granularity of its cache row.
type Table1Row struct {
	Config string
	Point
}

// FormatTable1 renders demand per interaction for each configuration.
func FormatTable1(title string, rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "RUBiS bidding mix on one backend: %s\n", title)
	fmt.Fprintf(&b, "%-16s %18s %18s\n", "config", "DB demand/iact", "C-JDBC demand/iact")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %18.3f %18.3f\n", r.Config, r.BackendDemand(), r.CtrlDemand())
	}
	return b.String()
}
