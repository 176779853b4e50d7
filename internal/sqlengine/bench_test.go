package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// benchEngine builds a 10k-row table with a primary-key index on id and a
// secondary index on cat, the shape of the RUBiS/TPC-W point-query hot path.
func benchEngine(b *testing.B) (*Engine, *Session) {
	b.Helper()
	e := New("bench")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE items (id INTEGER PRIMARY KEY, cat INTEGER, name VARCHAR)"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.ExecSQL("CREATE INDEX items_cat ON items (cat)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		sql := fmt.Sprintf("INSERT INTO items (id, cat, name) VALUES (%d, %d, 'item-%d')", i, i%100, i)
		if _, err := s.ExecSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
	return e, s
}

// mustParse parses one statement for reuse across iterations, so benchmarks
// measure the engine and not the parser (the controller's plan cache already
// amortizes parsing).
func mustParse(b *testing.B, sql string) sqlparser.Statement {
	b.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkPointSelect measures a primary-key point query on a 10k-row
// table: the engine's ability to answer WHERE id = k from the hash index
// instead of a full scan.
func BenchmarkPointSelect(b *testing.B) {
	_, s := benchEngine(b)
	stmts := make([]sqlparser.Statement, 64)
	for i := range stmts {
		stmts[i] = mustParse(b, fmt.Sprintf("SELECT id, cat, name FROM items WHERE id = %d", (i*157)%10000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkPointSelectFullScan is the same query with index planning
// disabled: the pre-PR behaviour, kept as the comparison baseline.
func BenchmarkPointSelectFullScan(b *testing.B) {
	e, s := benchEngine(b)
	e.noIndexPlan.Store(true)
	st := mustParse(b, "SELECT id, cat, name FROM items WHERE id = 4711")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkSecondaryIndexSelect measures an equality on a non-unique
// secondary index (100 matching rows of 10k).
func BenchmarkSecondaryIndexSelect(b *testing.B) {
	_, s := benchEngine(b)
	st := mustParse(b, "SELECT id, name FROM items WHERE cat = 42")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 100 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkParallelEngineRead runs point selects from concurrent sessions.
// With the engine's read path under an RWMutex, throughput should scale
// with GOMAXPROCS instead of flattening on a global mutex.
func BenchmarkParallelEngineRead(b *testing.B) {
	e, _ := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Only Error/Errorf here: Fatal must not be called from the
		// goroutines RunParallel spawns.
		s := e.NewSession()
		defer s.Close()
		st, err := sqlparser.Parse("SELECT id, cat, name FROM items WHERE id = 4711")
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			res, err := s.Exec(st)
			if err != nil {
				b.Error(err)
				return
			}
			if len(res.Rows) != 1 {
				b.Errorf("rows = %d", len(res.Rows))
				return
			}
		}
	})
}

// BenchmarkInsertIndexed measures the write path's per-row index
// maintenance cost (two indexes), the target of the byte-scratch key work.
func BenchmarkInsertIndexed(b *testing.B) {
	e := New("bench-ins")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE w (id INTEGER PRIMARY KEY, cat INTEGER, name VARCHAR)"); err != nil {
		b.Fatal(err)
	}
	if _, err := s.ExecSQL("CREATE INDEX w_cat ON w (cat)"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("INSERT INTO w (id, cat, name) VALUES (%d, %d, 'n%d')", i, i%100, i)
		if _, err := s.ExecSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateChurn runs auto-commit point UPDATEs with uniform keys on
// an 80 000-row table from one session that is never closed, so only the
// statement-end trigger reclaims. versions/row is what that trigger leaves
// behind when the loop ends: 1.0 is exact reclamation.
func BenchmarkUpdateChurn(b *testing.B) {
	const rows = 80000
	e := New("bench-churn")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)"); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < rows; lo += 500 {
		if _, err := s.ExecSQL(pointInsert(lo, 500)); err != nil {
			b.Fatal(err)
		}
	}
	// One parsed statement whose key literal is rewritten per iteration.
	st := mustParse(b, "UPDATE kv SET v = v + 1 WHERE id = 0")
	key := &st.(*sqlparser.Update).Where.Right.Lit
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*key = sqlval.Int(int64(rng.Intn(rows)))
		if _, err := s.Exec(st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	vs := e.VersionStatsSnapshot()
	b.ReportMetric(float64(vs.Versions)/float64(vs.Chains), "versions/row")
}

// BenchmarkPointSelectUnderWriteLoad is the MVCC acceptance benchmark: a
// primary-key point select while a concurrent session continuously updates
// the same table. Pre-MVCC every read waited behind the writer's storage
// latch (and the writer behind the readers'); with snapshot reads the
// reader takes no latch and no lock-manager lock, so the point read should
// stay within ~2x of its idle cost (scheduling noise on a single-CPU host),
// not degrade to the write's latency.
func BenchmarkPointSelectUnderWriteLoad(b *testing.B) {
	e, s := benchEngine(b)
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ws := e.NewSession()
		defer ws.Close()
		st := mustParse(b, "UPDATE items SET name = 'churn' WHERE id = 9000")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ws.Exec(st); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	st := mustParse(b, "SELECT id, cat, name FROM items WHERE id = 4711")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
	b.StopTimer()
	close(stop)
	<-writerDone
}

// BenchmarkSnapshotScan prices the snapshot read path's full-table scan
// (resolve each chain against the pinned epoch, no latch): the per-row
// version-resolution overhead every aggregate query pays. Each row is
// folded into the one group's accumulators as the scan yields it, so
// neither the bytes nor the allocations grow with the 10 000 rows: B/op is
// the statement's constant cost.
func BenchmarkSnapshotScan(b *testing.B) {
	_, s := benchEngine(b)
	st := mustParse(b, "SELECT COUNT(*), MAX(cat) FROM items")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0][0].I != 10000 {
			b.Fatalf("count = %d", res.Rows[0][0].I)
		}
	}
}

// BenchmarkRangeSelect measures an ordered-index range scan at several
// range widths on the 10k-row table. The acceptance property is that cost
// scales with the result size (rows in [lo, lo+width)), not the table
// size: doubling the width should roughly double ns/op while the 10k-row
// table stays fixed. The fullscan variants are the forced-scan baseline,
// whose cost is flat in the width and proportional to the table instead.
func BenchmarkRangeSelect(b *testing.B) {
	for _, width := range []int{10, 100, 1000} {
		for _, scan := range []bool{false, true} {
			name := fmt.Sprintf("width=%d", width)
			if scan {
				name += "/fullscan"
			} else {
				name += "/indexed"
			}
			b.Run(name, func(b *testing.B) {
				e, s := benchEngine(b)
				e.noIndexPlan.Store(scan)
				st := mustParse(b, fmt.Sprintf("SELECT id, name FROM items WHERE id >= 4000 AND id < %d", 4000+width))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := s.Exec(st)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != width {
						b.Fatalf("rows = %d, want %d", len(res.Rows), width)
					}
				}
			})
		}
	}
}

// BenchmarkRangeSelectOrderBy is the benchmark suite's wire_read range
// read: fifty rows of a primary-key range, ordered by the key. The range
// is collected through the ordered index and sorted in memory; with one
// slab per result, allocations do not grow with the rows returned.
func BenchmarkRangeSelectOrderBy(b *testing.B) {
	_, s := benchEngine(b)
	stmts := make([]sqlparser.Statement, 64)
	for i := range stmts {
		lo := (i * 157) % 9950
		stmts[i] = mustParse(b, fmt.Sprintf("SELECT id, cat, name FROM items WHERE id >= %d AND id < %d ORDER BY id", lo, lo+50))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 50 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkDistinct deduplicates 1 000 projected rows into 100: the key of
// each row is built in a reused buffer, so only a new distinct row
// allocates.
func BenchmarkDistinct(b *testing.B) {
	_, s := benchEngine(b)
	st := mustParse(b, "SELECT DISTINCT cat FROM items WHERE id >= 2000 AND id < 3000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 100 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkGroupBySum is TPC-W's bestSellers aggregate: 3 000 order lines
// summed into 1 000 item groups, then the top 50. Each line is folded into
// its group as the scan yields it, through the integer group table; the
// top 50 are kept in a bounded heap and only they are projected. Bytes and
// allocations scale with the groups, not with the rows scanned.
func BenchmarkGroupBySum(b *testing.B) {
	e := New("bench-group")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE order_line (ol_id INTEGER PRIMARY KEY, ol_i_id INTEGER, ol_qty INTEGER)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO order_line (ol_id, ol_i_id, ol_qty) VALUES (%d, %d, %d)", i, (i*7)%1000, i%5+1)); err != nil {
			b.Fatal(err)
		}
	}
	st := mustParse(b, "SELECT ol_i_id, SUM(ol_qty) AS total FROM order_line GROUP BY ol_i_id ORDER BY total DESC LIMIT 50")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 50 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkJoinLikeLimit is TPC-W's author search: a LIKE on the joined
// table's column, LIMIT 50 with no ORDER BY, over 1 000 items by 250
// authors. The author table is scanned once and only the authors the LIKE
// keeps are probed; the join stops after the fiftieth match. ln1% keeps
// 111 authors and stops early, ln137% keeps one author's four items, so
// every item is probed.
func BenchmarkJoinLikeLimit(b *testing.B) {
	for _, c := range []struct {
		pattern string
		rows    int
	}{{"ln1%", 50}, {"ln137%", 4}} {
		b.Run(c.pattern, func(b *testing.B) { benchJoinLike(b, c.pattern, c.rows) })
	}
}

func benchJoinLike(b *testing.B, pattern string, rows int) {
	e := New("bench-join-like")
	s := e.NewSession()
	for _, q := range []string{
		"CREATE TABLE author (a_id INTEGER PRIMARY KEY, a_lname VARCHAR)",
		"CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_title VARCHAR, i_a_id INTEGER)",
	} {
		if _, err := s.ExecSQL(q); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= 250; i++ {
		if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO author (a_id, a_lname) VALUES (%d, 'LN%d')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO item (i_id, i_title, i_a_id) VALUES (%d, 'Book %d', %d)", i, i, i%250+1)); err != nil {
			b.Fatal(err)
		}
	}
	st := mustParse(b, "SELECT i_id, i_title FROM item JOIN author ON i_a_id = a_id WHERE a_lname LIKE '"+pattern+"' LIMIT 50")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != rows {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkLikeScan is TPC-W's title search: a contains-LIKE over 1 000
// titles that one matches, LIMIT 50. The pattern is classified and folded
// once per execution, and each title is matched byte by byte.
func BenchmarkLikeScan(b *testing.B) {
	e := New("bench-like")
	s := e.NewSession()
	if _, err := s.ExecSQL("CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_title VARCHAR, i_subject VARCHAR)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.ExecSQL(fmt.Sprintf("INSERT INTO item (i_id, i_title, i_subject) VALUES (%d, 'Book %d of the series', 'ARTS')", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	st := &sqlparser.Bound{
		Stmt:   mustParse(b, "SELECT i_id, i_title FROM item WHERE i_title LIKE ? LIMIT 50"),
		Params: []sqlval.Value{sqlval.String_("%Book 417 %")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkOrderByLimitTopK is the PR-8 acceptance benchmark: ORDER BY on
// an indexed column with LIMIT 10 over 10k rows. The indexed variant walks
// the ordered index in key order and stops after ten live rows — touching
// ~10 rows, allocating ~10 rows. The fullscan variant is the forced
// baseline: materialize all 10k rows, sort, take ten. Acceptance requires
// the indexed path to be at least 10x cheaper in both ns/op and allocs/op.
func BenchmarkOrderByLimitTopK(b *testing.B) {
	for _, mode := range []struct {
		name string
		scan bool
	}{{"indexed", false}, {"fullscan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e, s := benchEngine(b)
			e.noIndexPlan.Store(mode.scan)
			st := mustParse(b, "SELECT id, cat, name FROM items ORDER BY id LIMIT 10")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Exec(st)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 10 || res.Rows[0][0].I != 0 {
					b.Fatalf("rows = %d, first id = %v", len(res.Rows), res.Rows[0][0])
				}
			}
		})
	}
}
