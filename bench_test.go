// Benchmarks regenerating the paper's evaluation (§6), ablations of the
// design choices, an engine join, and the multi-writer scaling of the write
// pipeline. Per-layer and end-to-end performance is measured by
// `bash bench/run.sh` (see BENCHMARK.json and bench/README.md), not here.
//
//	go test -bench 'Figure10' -benchtime 1x .   # one figure
//	go test -bench . -benchmem .                # everything
//
// Macro benchmarks report rq/min (the paper's unit), ms/interaction and the
// backend CPU-load proxy as custom metrics; ns/op is meaningless for them.
// cmd/tpcw-bench and cmd/rubis-bench print the full sweeps.
package cjdbc_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cjdbc"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/workload/experiments"
	"cjdbc/internal/workload/rubis"
	"cjdbc/internal/workload/tpcw"
)

// benchTPCWConfig shrinks the sweep for bench time while keeping the same
// cost calibration as the full harness.
func benchTPCWConfig(mix tpcw.Mix) experiments.TPCWConfig {
	cfg := experiments.DefaultTPCWConfig(mix)
	cfg.Scale = tpcw.Scale{Items: 80, Customers: 80, Authors: 16}
	cfg.Warmup = 150 * time.Millisecond
	cfg.Duration = 500 * time.Millisecond
	return cfg
}

func reportPoint(b *testing.B, p experiments.TPCWPoint) {
	b.Helper()
	b.ReportMetric(p.ThroughputRPM, "rq/min")
	b.ReportMetric(p.AvgResponseMs, "ms/interaction")
	b.ReportMetric(p.BackendLoad*100, "DB%")
	if p.Errors > 0 {
		b.Logf("%s/%d: %d errors (first: %v)", p.Replication, p.Nodes, p.Errors, p.FirstError)
	}
}

// benchFigure runs the representative points of one TPC-W figure.
func benchFigure(b *testing.B, mix tpcw.Mix) {
	b.Run("single-1", func(b *testing.B) {
		cfg := benchTPCWConfig(mix)
		for i := 0; i < b.N; i++ {
			pts, err := experiments.RunTPCWFigure(experiments.TPCWConfig{
				Mix: cfg.Mix, MaxNodes: 0, Scale: cfg.Scale, CostScale: cfg.CostScale,
				ClientsPerNode: cfg.ClientsPerNode, BaseClients: cfg.BaseClients,
				Warmup: cfg.Warmup, Duration: cfg.Duration, Seed: cfg.Seed,
				EarlyResponse: cfg.EarlyResponse,
			})
			if err != nil {
				b.Fatal(err)
			}
			reportPoint(b, pts[0])
		}
	})
	for _, pt := range []struct {
		repl  string
		nodes int
	}{
		{"full", 1}, {"full", 2}, {"full", 4}, {"full", 6},
		{"partial", 2}, {"partial", 4}, {"partial", 6},
	} {
		b.Run(fmt.Sprintf("%s-%d", pt.repl, pt.nodes), func(b *testing.B) {
			cfg := benchTPCWConfig(mix)
			for i := 0; i < b.N; i++ {
				p, err := experiments.RunTPCWPoint(cfg, pt.repl, pt.nodes)
				if err != nil {
					b.Fatal(err)
				}
				reportPoint(b, p)
			}
		})
	}
}

// BenchmarkFigure10 regenerates Figure 10: TPC-W browsing mix throughput vs
// backends (full vs partial replication).
func BenchmarkFigure10(b *testing.B) { benchFigure(b, tpcw.Browsing) }

// BenchmarkFigure11 regenerates Figure 11: TPC-W shopping mix.
func BenchmarkFigure11(b *testing.B) { benchFigure(b, tpcw.Shopping) }

// BenchmarkFigure12 regenerates Figure 12: TPC-W ordering mix.
func BenchmarkFigure12(b *testing.B) { benchFigure(b, tpcw.Ordering) }

// BenchmarkTable1 regenerates Table 1: the RUBiS bidding mix on one backend
// with the result cache off, coherent, and relaxed.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultTable1Config()
	cfg.Scale = rubis.Scale{Users: 80, Items: 160, Categories: 10, Regions: 5}
	cfg.Warmup = 150 * time.Millisecond
	cfg.Duration = 500 * time.Millisecond
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("%-16s %10.0f rq/min %8.2f ms  DB %3.0f%%  ctrl %3.0f%%",
				r.Config, r.ThroughputRPM, r.AvgResponseMs, r.BackendLoad*100, r.CtrlLoad*100)
		}
		// Headline metric: relaxed-cache throughput gain over no cache.
		if rows[0].ThroughputRPM > 0 {
			b.ReportMetric(rows[2].ThroughputRPM/rows[0].ThroughputRPM, "relaxed/no-cache")
			b.ReportMetric(rows[0].BackendLoad*100, "DB%-nocache")
			b.ReportMetric(rows[2].BackendLoad*100, "DB%-relaxed")
		}
	}
}

// BenchmarkAblationEarlyResponse compares early response "first" (the
// paper's TPC-W configuration) against fully synchronous "all" (§2.4.4).
func BenchmarkAblationEarlyResponse(b *testing.B) {
	for _, policy := range []string{"first", "all"} {
		b.Run(policy, func(b *testing.B) {
			cfg := benchTPCWConfig(tpcw.Ordering)
			cfg.EarlyResponse = policy
			for i := 0; i < b.N; i++ {
				p, err := experiments.RunTPCWPoint(cfg, "full", 4)
				if err != nil {
					b.Fatal(err)
				}
				reportPoint(b, p)
			}
		})
	}
}

// BenchmarkAblationParallelTx compares parallel transactions (§2.4.4)
// against a fully serialized scheduler.
func BenchmarkAblationParallelTx(b *testing.B) {
	for _, parallel := range []bool{true, false} {
		name := "parallel"
		if !parallel {
			name = "serialized"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchTPCWConfig(tpcw.Shopping)
			cfg.DisableParallelTx = !parallel
			for i := 0; i < b.N; i++ {
				p, err := experiments.RunTPCWPoint(cfg, "full", 2)
				if err != nil {
					b.Fatal(err)
				}
				reportPoint(b, p)
			}
		})
	}
}

// BenchmarkCacheGranularity compares the invalidation granularities of
// §2.4.2 on the RUBiS mix.
func BenchmarkCacheGranularity(b *testing.B) {
	for _, gran := range []string{"database", "table", "column"} {
		b.Run(gran, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := runRUBiSWithCache(gran)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ThroughputRPM, "rq/min")
				b.ReportMetric(res.AvgResponseMs, "ms/interaction")
			}
		})
	}
}

func runRUBiSWithCache(granularity string) (r struct {
	ThroughputRPM float64
	AvgResponseMs float64
}, err error) {
	cfg := experiments.DefaultTable1Config()
	cfg.Scale = rubis.Scale{Users: 80, Items: 160, Categories: 10, Regions: 5}
	cfg.Warmup = 150 * time.Millisecond
	cfg.Duration = 400 * time.Millisecond
	res, err := experiments.RunTable1Mode(cfg, "coherent cache", granularity)
	if err != nil {
		return r, err
	}
	r.ThroughputRPM = res.ThroughputRPM
	r.AvgResponseMs = res.AvgResponseMs
	return r, nil
}

// --- engine join and write-pipeline scaling ---

// BenchmarkEngineJoin measures an indexed two-table join.
func BenchmarkEngineJoin(b *testing.B) {
	e := sqlengine.New("bench")
	s := e.NewSession()
	s.ExecSQL("CREATE TABLE a (id INTEGER PRIMARY KEY, bid INTEGER)")
	s.ExecSQL("CREATE TABLE c (id INTEGER PRIMARY KEY, name VARCHAR)")
	for i := 0; i < 200; i++ {
		s.ExecSQL(fmt.Sprintf("INSERT INTO a (id, bid) VALUES (%d, %d)", i, i%50))
		if i < 50 {
			s.ExecSQL(fmt.Sprintf("INSERT INTO c (id, name) VALUES (%d, 'n%d')", i, i))
		}
	}
	st, _ := sqlparser.Parse("SELECT a.id, c.name FROM a JOIN c ON a.bid = c.id WHERE c.id = 7")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(st); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWriteVDB builds a one-backend virtual database with k disjoint
// tables t0..t(k-1), each seeded with `rows` rows, for the write-pipeline
// benchmarks (no cost model: real engine concurrency is what is measured).
func benchWriteVDB(b *testing.B, k, rows int) *cjdbc.VirtualDatabase {
	b.Helper()
	ctrl := cjdbc.NewController("bench", 1)
	b.Cleanup(ctrl.Close)
	vdb, err := ctrl.CreateVirtualDatabase(cjdbc.VirtualDatabaseConfig{Name: "w"})
	if err != nil {
		b.Fatal(err)
	}
	vdb.AddInMemoryBackend("db0")
	sess, _ := vdb.OpenSession("u", "")
	defer sess.Close()
	for i := 0; i < k; i++ {
		if _, err := sess.Exec(fmt.Sprintf("CREATE TABLE t%d (id INTEGER PRIMARY KEY, v INTEGER)", i)); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			if _, err := sess.Exec(fmt.Sprintf("INSERT INTO t%d (id, v) VALUES (%d, 0)", i, r)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return vdb
}

// benchParallelWrites runs GOMAXPROCS writers, each assigned a table by
// worker index modulo `tables`, through the full controller write path.
func benchParallelWrites(b *testing.B, vdb *cjdbc.VirtualDatabase, tables, rows int) {
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tbl := int(next.Add(1)-1) % tables
		s, err := vdb.OpenSession("u", "")
		if err != nil {
			b.Error(err)
			return
		}
		defer s.Close()
		i := 0
		for pb.Next() {
			if _, err := s.Exec(fmt.Sprintf("UPDATE t%d SET v = %d WHERE id = %d", tbl, i, i%rows)); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkDisjointTableWrites drives parallel writers, each updating its
// own table, through the whole conflict-class pipeline (scheduler class
// locks, per-conflict backend lanes, per-table engine locks) on one
// backend. Compare with BenchmarkSameTableWrites, where every writer hits
// one table and the pipeline degenerates to the old total order: pre-PR
// both cases serialized three times over (global scheduler mutex, single
// FIFO backend lane, engine-global write lock), so disjoint writes could
// not scale past one lane.
func BenchmarkDisjointTableWrites(b *testing.B) {
	const tables, rows = 8, 64
	vdb := benchWriteVDB(b, tables, rows)
	benchParallelWrites(b, vdb, tables, rows)
}

// BenchmarkSameTableWrites is the conflicting baseline: every writer
// updates the same table.
func BenchmarkSameTableWrites(b *testing.B) {
	const rows = 64
	vdb := benchWriteVDB(b, 1, rows)
	benchParallelWrites(b, vdb, 1, rows)
}

// BenchmarkMixedAutoCommitTxContention drives auto-commit writers and
// short transactions over the same tables: the contended case where
// enqueue-time tickets, not each replica's lock queue, decide the order of
// every auto-commit/transactional pair.
func BenchmarkMixedAutoCommitTxContention(b *testing.B) {
	const tables, rows = 2, 64
	vdb := benchWriteVDB(b, tables, rows)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1) - 1)
		tbl := id % tables
		s, err := vdb.OpenSession("u", "")
		if err != nil {
			b.Error(err)
			return
		}
		defer s.Close()
		i := 0
		for pb.Next() {
			// Alternate per iteration, not per goroutine, so the mix is
			// real even when RunParallel spawns a single goroutine
			// (GOMAXPROCS=1, the CI bench host).
			if i%2 == 0 {
				// Auto-commit writer.
				if _, err := s.Exec(fmt.Sprintf("UPDATE t%d SET v = %d WHERE id = %d", tbl, i, i%rows)); err != nil {
					b.Error(err)
					return
				}
			} else {
				// Transactional writer on the same tables.
				for _, q := range []string{
					"BEGIN",
					fmt.Sprintf("UPDATE t%d SET v = v + 1 WHERE id = %d", tbl, i%rows),
					"COMMIT",
				} {
					if _, err := s.Exec(q); err != nil {
						b.Error(err)
						return
					}
				}
			}
			i++
		}
	})
}
