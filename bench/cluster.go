package main

import (
	"fmt"

	"cjdbc"
	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/cache"
	"cjdbc/internal/controller"
	"cjdbc/internal/netproto"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlval"
)

const (
	vdbName     = "bench"
	nBackends   = 2
	cacheSlots  = 4096 // the result cache's default size, stated so the Zipf tail is known not to fit
	benchUser   = "bench"
	loopbackTCP = "127.0.0.1:0"
)

// clusterOpts are the three ways the workloads' clusters differ.
type clusterOpts struct {
	cache  bool    // coherent table-granularity result cache on
	wire   bool    // clients connect through cjdbc:// on loopback TCP
	tracer *tracer // non-nil builds the cluster from the tracing wrappers
}

// cluster is the fixed configuration every workload runs on: one controller,
// RAIDb-1 over two uncosted in-process engines, in-memory recovery log, plan
// cache on, early response "all".
type cluster struct {
	vdb     *controller.VirtualDatabase
	engines [nBackends]*sqlengine.Engine
	open    func() (cjdbc.Session, error)
	addr    string // loopback address when opts.wire
	close   func()
}

// newCluster builds an empty cluster. Without a tracer it goes through the
// public cjdbc API, so end-to-end numbers are what an application sees; with
// one it assembles the same configuration from controller.VDBConfig, the only
// place the wrappers can be put in.
func newCluster(o clusterOpts) (*cluster, error) {
	c := &cluster{}
	for i := range c.engines {
		c.engines[i] = sqlengine.New(backendName(i))
	}
	var err error
	if o.tracer == nil {
		err = c.buildPublic(o)
	} else {
		err = c.buildTraced(o)
	}
	if err != nil {
		return nil, err
	}
	if o.wire {
		dsn := fmt.Sprintf("cjdbc://%s/%s?user=%s", c.addr, vdbName, benchUser)
		c.open = func() (cjdbc.Session, error) { return cjdbc.Connect(dsn) }
	}
	return c, nil
}

func backendName(i int) string { return fmt.Sprintf("db%d", i) }

func (c *cluster) closeEngines() {
	for _, e := range c.engines {
		e.Close()
	}
}

func (c *cluster) buildPublic(o clusterOpts) error {
	ctrl := cjdbc.NewController("bench-ctrl", 1)
	cfg := cjdbc.VirtualDatabaseConfig{Name: vdbName, RecoveryLogPath: "memory", EarlyResponse: "all"}
	if o.cache {
		cfg.Cache = &cjdbc.CacheConfig{Granularity: "table", MaxEntries: cacheSlots}
	}
	vdb, err := ctrl.CreateVirtualDatabase(cfg)
	if err != nil {
		return err
	}
	for i, e := range c.engines {
		if err := vdb.AddEngineBackend(backendName(i), e); err != nil {
			return err
		}
	}
	if o.wire {
		if c.addr, err = ctrl.ListenAndServe(loopbackTCP); err != nil {
			return err
		}
	}
	c.vdb = vdb.Internal()
	c.open = func() (cjdbc.Session, error) { return vdb.OpenSession(benchUser, "") }
	c.close = func() { ctrl.Close(); c.closeEngines() }
	return nil
}

func (c *cluster) buildTraced(o clusterOpts) error {
	tr := o.tracer
	ctrl := controller.New("bench-ctrl", 1)
	var rc *cache.ResultCache
	if o.cache {
		rc = cache.New(cache.Config{Granularity: cache.GranTable, MaxEntries: cacheSlots})
	}
	vdb, err := ctrl.AddVirtualDatabase(controller.VDBConfig{
		Name:          vdbName,
		Balancer:      &tracedBalancer{inner: &balancer.LeastPending{}, tr: tr},
		Cache:         rc,
		RecoveryLog:   &tracedLog{Log: recovery.NewMemoryLog(), tr: tr},
		EarlyResponse: controller.ResponseAll,
		ParallelTx:    true,
		Auth:          controller.NewAuthManager(),
	})
	if err != nil {
		return err
	}
	for i, e := range c.engines {
		d := &tracedDriver{EngineDriver: &backend.EngineDriver{Engine: e}, tr: tr, backend: uint8(i)}
		if err := vdb.AddBackend(backend.New(backend.Config{Name: backendName(i), Driver: d})); err != nil {
			return err
		}
	}
	var srv *netproto.Server
	if o.wire {
		srv = netproto.NewServer(ctrl)
		if c.addr, err = srv.Listen(loopbackTCP); err != nil {
			return err
		}
	}
	c.vdb = vdb
	c.open = func() (cjdbc.Session, error) {
		s, err := vdb.NewSession(benchUser, "")
		if err != nil {
			return nil, err
		}
		return &innerSession{s: s}, nil
	}
	c.close = func() {
		if srv != nil {
			srv.Close()
		}
		ctrl.Close()
		c.closeEngines()
	}
	return nil
}

// innerSession is the public package's in-process session over a controller
// session, repeated here because the traced cluster is not built through the
// public package and so cannot ask it for one.
type innerSession struct{ s *controller.Session }

func (l *innerSession) Exec(sql string, args ...any) (*cjdbc.Rows, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	res, err := l.s.Exec(sql, params)
	if err != nil {
		return nil, err
	}
	return cjdbc.NewRows(res), nil
}

// toValues converts the argument types the workloads use.
func toValues(args []any) ([]sqlval.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	params := make([]sqlval.Value, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case int:
			params[i] = sqlval.Int(int64(x))
		case int64:
			params[i] = sqlval.Int(x)
		case float64:
			params[i] = sqlval.Float(x)
		case string:
			params[i] = sqlval.String_(x)
		default:
			return nil, fmt.Errorf("bench: unsupported argument type %T", a)
		}
	}
	return params, nil
}

func (l *innerSession) Query(sql string, args ...any) (*cjdbc.Rows, error) {
	return l.Exec(sql, args...)
}
func (l *innerSession) Begin() error    { _, err := l.Exec("BEGIN"); return err }
func (l *innerSession) Commit() error   { _, err := l.Exec("COMMIT"); return err }
func (l *innerSession) Rollback() error { _, err := l.Exec("ROLLBACK"); return err }
func (l *innerSession) Close() error    { l.s.Close(); return nil }
