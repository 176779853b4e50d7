// Benchmarks of an engine join and the multi-writer scaling of the write
// pipeline. Per-layer and end-to-end performance is measured by
// `bash bench/run.sh` (see BENCHMARK.json and bench/README.md), not here;
// the paper's figures are accounted by internal/workload/experiments:
//
//	go test -v -run 'Figure|Table1' ./internal/workload/experiments
package cjdbc_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"cjdbc"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

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
