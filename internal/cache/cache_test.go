package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/shardutil"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

func res(n int) *backend.Result {
	r := &backend.Result{Columns: []string{"a"}}
	for i := 0; i < n; i++ {
		r.Rows = append(r.Rows, []sqlval.Value{sqlval.Int(int64(i))})
	}
	return r
}

// withByteBudget replaces the cache's 4 KiB-per-slot byte budget with a
// total of budget bytes spread over the shards, so weight tests can work
// with small results.
func withByteBudget(c *ResultCache, budget int) *ResultCache {
	n := len(c.shards)
	for i := range c.shards {
		c.shards[i].maxW = (budget + n - 1) / n
	}
	return c
}

func stmt(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHitMiss(t *testing.T) {
	c := New(Config{Granularity: GranTable})
	q := "SELECT a FROM t WHERE id = 1"
	if c.Get(q) != nil {
		t.Fatal("unexpected hit")
	}
	c.Put(q, stmt(t, q), res(1))
	if got := c.Get(q); got == nil || len(got.Rows) != 1 {
		t.Fatal("expected hit")
	}
	// Whitespace-normalized key.
	if c.Get("  "+q+"  ") == nil {
		t.Fatal("normalized key should hit")
	}
	st := c.StatsSnapshot()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestOnlyReadsAreCached(t *testing.T) {
	c := New(Config{})
	w := "UPDATE t SET a = 1"
	c.Put(w, stmt(t, w), res(1))
	if c.Len() != 0 {
		t.Fatal("write cached")
	}
}

func TestDatabaseGranularityFlushesAll(t *testing.T) {
	c := New(Config{Granularity: GranDatabase})
	c.Put("SELECT a FROM t", stmt(t, "SELECT a FROM t"), res(1))
	c.Put("SELECT b FROM u", stmt(t, "SELECT b FROM u"), res(1))
	c.InvalidateWrite(stmt(t, "UPDATE unrelated SET x = 1"))
	if c.Len() != 0 {
		t.Fatal("database granularity must flush everything")
	}
}

func TestTableGranularity(t *testing.T) {
	c := New(Config{Granularity: GranTable})
	c.Put("SELECT a FROM t", stmt(t, "SELECT a FROM t"), res(1))
	c.Put("SELECT b FROM u", stmt(t, "SELECT b FROM u"), res(1))
	c.Put("SELECT t.a, u.b FROM t JOIN u ON t.id = u.id",
		stmt(t, "SELECT t.a, u.b FROM t JOIN u ON t.id = u.id"), res(1))
	c.InvalidateWrite(stmt(t, "UPDATE t SET a = 2"))
	if c.Get("SELECT a FROM t") != nil {
		t.Error("entry on written table survived")
	}
	if c.Get("SELECT t.a, u.b FROM t JOIN u ON t.id = u.id") != nil {
		t.Error("join entry reading written table survived")
	}
	if c.Get("SELECT b FROM u") == nil {
		t.Error("entry on unrelated table was invalidated")
	}
}

func TestColumnGranularity(t *testing.T) {
	c := New(Config{Granularity: GranColumn})
	c.Put("SELECT a FROM t WHERE id = 1", stmt(t, "SELECT a FROM t WHERE id = 1"), res(1))
	c.Put("SELECT b FROM t WHERE id = 1", stmt(t, "SELECT b FROM t WHERE id = 1"), res(1))
	c.Put("SELECT * FROM t", stmt(t, "SELECT * FROM t"), res(1))

	// Update touching only column b.
	c.InvalidateWrite(stmt(t, "UPDATE t SET b = 9 WHERE id = 1"))
	if c.Get("SELECT a FROM t WHERE id = 1") == nil {
		t.Error("column-disjoint entry invalidated")
	}
	if c.Get("SELECT b FROM t WHERE id = 1") != nil {
		t.Error("entry reading written column survived")
	}
	if c.Get("SELECT * FROM t") != nil {
		t.Error("star entry (not enumerable) survived")
	}

	// DELETE has no written-column list: everything on the table goes.
	c.Put("SELECT a FROM t WHERE id = 1", stmt(t, "SELECT a FROM t WHERE id = 1"), res(1))
	c.InvalidateWrite(stmt(t, "DELETE FROM t WHERE id = 1"))
	if c.Get("SELECT a FROM t WHERE id = 1") != nil {
		t.Error("entry survived DELETE")
	}
}

func TestColumnGranularityWhereColumns(t *testing.T) {
	// A query filtering on a written column must be invalidated even if it
	// does not select it: the row membership may change.
	c := New(Config{Granularity: GranColumn})
	q := "SELECT a FROM t WHERE b > 5"
	c.Put(q, stmt(t, q), res(1))
	c.InvalidateWrite(stmt(t, "UPDATE t SET b = 0"))
	if c.Get(q) != nil {
		t.Error("entry filtering on written column survived")
	}
}

func TestRelaxedStaleness(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New(Config{Granularity: GranTable, Staleness: time.Minute, Clock: clock})
	q := "SELECT a FROM t"
	c.Put(q, stmt(t, q), res(1))

	// Updates do NOT invalidate under a staleness limit.
	c.InvalidateWrite(stmt(t, "UPDATE t SET a = 1"))
	if c.Get(q) == nil {
		t.Fatal("relaxed cache dropped entry on write")
	}
	// Entries expire by age.
	now = now.Add(61 * time.Second)
	if c.Get(q) != nil {
		t.Fatal("expired entry returned")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{Granularity: GranTable, MaxEntries: 3})
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		c.Put(q, stmt(t, q), res(1))
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// Oldest entries evicted.
	if c.Get("SELECT a FROM t WHERE id = 0") != nil {
		t.Error("oldest entry survived eviction")
	}
	if c.Get("SELECT a FROM t WHERE id = 4") == nil {
		t.Error("newest entry evicted")
	}
	if st := c.StatsSnapshot(); st.Evictions != 2 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestLRUTouchOnGet(t *testing.T) {
	c := New(Config{Granularity: GranTable, MaxEntries: 2})
	q1, q2, q3 := "SELECT a FROM t WHERE id = 1", "SELECT a FROM t WHERE id = 2", "SELECT a FROM t WHERE id = 3"
	c.Put(q1, stmt(t, q1), res(1))
	c.Put(q2, stmt(t, q2), res(1))
	c.Get(q1) // touch: q2 becomes LRU
	c.Put(q3, stmt(t, q3), res(1))
	if c.Get(q1) == nil {
		t.Error("touched entry evicted")
	}
	if c.Get(q2) != nil {
		t.Error("LRU entry survived")
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{})
	q := "SELECT a FROM t"
	c.Put(q, stmt(t, q), res(1))
	c.Flush()
	if c.Len() != 0 || c.Get(q) != nil {
		t.Fatal("flush incomplete")
	}
}

func TestPutReplacesExisting(t *testing.T) {
	c := New(Config{Granularity: GranTable})
	q := "SELECT a FROM t"
	c.Put(q, stmt(t, q), res(1))
	c.Put(q, stmt(t, q), res(5))
	if got := c.Get(q); len(got.Rows) != 5 {
		t.Fatalf("replacement not visible: %d rows", len(got.Rows))
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate entries: %d", c.Len())
	}
}

func TestGranularityString(t *testing.T) {
	if GranDatabase.String() != "database" || GranTable.String() != "table" || GranColumn.String() != "column" {
		t.Error("granularity names")
	}
}

func TestInvalidateWriteReturnsCount(t *testing.T) {
	c := New(Config{Granularity: GranTable})
	c.Put("SELECT a FROM t", stmt(t, "SELECT a FROM t"), res(1))
	c.Put("SELECT b FROM t", stmt(t, "SELECT b FROM t"), res(1))
	c.Put("SELECT b FROM u", stmt(t, "SELECT b FROM u"), res(1))
	if n := c.InvalidateWrite(stmt(t, "UPDATE t SET a = 1")); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if n := c.InvalidateWrite(stmt(t, "UPDATE t SET a = 1")); n != 0 {
		t.Fatalf("second invalidation dropped %d", n)
	}
	if st := c.StatsSnapshot(); st.Invalidations != 2 {
		t.Errorf("invalidation counter = %d", st.Invalidations)
	}
}

func TestColumnGranularityManyColumnsUsesMapPath(t *testing.T) {
	// More than two written columns exercises the map-probe intersection.
	c := New(Config{Granularity: GranColumn})
	c.Put("SELECT c3 FROM t", stmt(t, "SELECT c3 FROM t"), res(1))
	c.Put("SELECT z FROM t", stmt(t, "SELECT z FROM t"), res(1))
	n := c.InvalidateWrite(stmt(t, "UPDATE t SET c1 = 1, c2 = 2, c3 = 3, c4 = 4"))
	if n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if c.Get("SELECT z FROM t") == nil {
		t.Error("column-disjoint entry invalidated")
	}
}

func TestShardedCapacityBound(t *testing.T) {
	// Large capacity spreads over shards; total entries stay bounded by the
	// configured capacity plus per-shard rounding.
	c := New(Config{Granularity: GranTable, MaxEntries: 1024})
	for i := 0; i < 3000; i++ {
		q := fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		c.Put(q, stmt(t, q), res(1))
	}
	if n := c.Len(); n > 1024+shardutil.MaxShards {
		t.Fatalf("len = %d exceeds capacity", n)
	}
}

// TestConcurrentStress hammers the sharded cache from 16 goroutines mixing
// Get, Put and InvalidateWrite; run with -race.
func TestConcurrentStress(t *testing.T) {
	c := New(Config{Granularity: GranColumn, MaxEntries: 512})
	tables := []string{"t0", "t1", "t2", "t3"}
	reads := make([]sqlparser.Statement, 64)
	readSQL := make([]string, 64)
	for i := range reads {
		readSQL[i] = fmt.Sprintf("SELECT a, b FROM %s WHERE id = %d", tables[i%len(tables)], i)
		reads[i] = stmt(t, readSQL[i])
	}
	writes := make([]sqlparser.Statement, len(tables))
	for i, tb := range tables {
		writes[i] = stmt(t, fmt.Sprintf("UPDATE %s SET a = 1 WHERE id = 0", tb))
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*37 + i) % len(reads)
				switch {
				case i%19 == 0:
					c.InvalidateWrite(writes[(g+i)%len(writes)])
				case c.Get(readSQL[k]) == nil:
					c.Put(readSQL[k], reads[k], res(1))
				}
				if i%101 == 0 {
					_ = c.Len()
					_ = c.StatsSnapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	// Strong consistency after the dust settles: a write to each table must
	// leave no entry reading it.
	for _, w := range writes {
		c.InvalidateWrite(w)
	}
	if c.Len() != 0 {
		t.Fatalf("%d entries survived invalidation of every table", c.Len())
	}
}

// TestByteWeightEviction: with a byte budget, admitting a heavy result
// evicts older entries until the summed byte weight fits again.
func TestByteWeightEviction(t *testing.T) {
	w4 := ApproxBytes(res(4))
	// Small MaxEntries keeps the cache on one shard with an exact budget;
	// budget exactly fits ten 4-row entries.
	c := withByteBudget(New(Config{Granularity: GranTable, MaxEntries: 100}), 10*w4)
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		c.Put(q, stmt(t, q), res(4))
	}
	if c.Len() != 10 || c.WeightBytes() != 10*w4 {
		t.Fatalf("len=%d weight=%d, want 10/%d", c.Len(), c.WeightBytes(), 10*w4)
	}
	// A result worth several slots must push out the oldest entries (LRU),
	// not fail.
	big := "SELECT a FROM t WHERE id < 1000"
	c.Put(big, stmt(t, big), res(30))
	if c.WeightBytes() > 10*w4 {
		t.Fatalf("weight = %d exceeds budget %d", c.WeightBytes(), 10*w4)
	}
	if c.Get(big) == nil {
		t.Fatal("heavy entry not admitted")
	}
	if c.Get("SELECT a FROM t WHERE id = 0") != nil {
		t.Error("oldest entry should have been evicted by weight")
	}
	if c.StatsSnapshot().Evictions == 0 {
		t.Error("weight evictions not counted")
	}
}

// TestByteWeightWideRowsWeighMore: byte accounting sees payload width, not
// just row count — a few wide rows outweigh many narrow ones.
func TestByteWeightWideRowsWeighMore(t *testing.T) {
	wide := &backend.Result{Columns: []string{"a"}}
	for i := 0; i < 4; i++ {
		wide.Rows = append(wide.Rows, []sqlval.Value{sqlval.String_(strings.Repeat("x", 4096))})
	}
	if ApproxBytes(wide) <= ApproxBytes(res(40)) {
		t.Fatalf("4 wide rows (%d B) should outweigh 40 narrow rows (%d B)",
			ApproxBytes(wide), ApproxBytes(res(40)))
	}
	// And the budget enforces it: a cache sized for narrow rows rejects
	// the wide result outright.
	c := withByteBudget(New(Config{Granularity: GranTable, MaxEntries: 100}), ApproxBytes(res(40)))
	q := "SELECT a FROM t"
	c.Put(q, stmt(t, q), wide)
	if c.Get(q) != nil {
		t.Fatal("wide result admitted past a byte budget its row count fits")
	}
}

// TestByteWeightOversizedBypass: a result heavier than the whole budget is
// not admitted and does not wipe the cache to make room.
func TestByteWeightOversizedBypass(t *testing.T) {
	c := withByteBudget(New(Config{Granularity: GranTable, MaxEntries: 100}), 4*ApproxBytes(res(1)))
	q := "SELECT a FROM t WHERE id = 1"
	c.Put(q, stmt(t, q), res(1))
	huge := "SELECT a FROM t"
	c.Put(huge, stmt(t, huge), res(500))
	if c.Get(huge) != nil {
		t.Fatal("oversized entry admitted")
	}
	if c.Get(q) == nil {
		t.Fatal("oversized put evicted existing entries")
	}
}

// TestByteBudgetIsFourKiBPerSlot: the byte budget follows MaxEntries at
// 4 KiB per slot, so a two-slot cache admits a 6 KiB result and rejects a
// 12 KiB one.
func TestByteBudgetIsFourKiBPerSlot(t *testing.T) {
	c := New(Config{Granularity: GranTable, MaxEntries: 2})
	wide := func(n int) *backend.Result {
		return &backend.Result{Columns: []string{"a"}, Rows: [][]sqlval.Value{{sqlval.String_(strings.Repeat("x", n))}}}
	}
	fits, over := "SELECT a FROM t WHERE id = 1", "SELECT a FROM t WHERE id = 2"
	c.Put(fits, stmt(t, fits), wide(6<<10))
	c.Put(over, stmt(t, over), wide(12<<10))
	if c.Get(fits) == nil {
		t.Error("a 6 KiB result was rejected by an 8 KiB budget")
	}
	if c.Get(over) != nil {
		t.Error("a 12 KiB result was admitted past an 8 KiB budget")
	}
}

// TestByteWeightEmptyResultChargesFloor: zero-row results still charge the
// per-entry floor, so unbounded numbers of empty results cannot pile up.
func TestByteWeightEmptyResultChargesFloor(t *testing.T) {
	c := withByteBudget(New(Config{Granularity: GranTable, MaxEntries: 1 << 20}), 10*MinEntryBytes)
	for i := 0; i < 200; i++ {
		q := fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		c.Put(q, stmt(t, q), &backend.Result{Columns: []string{"a"}})
	}
	if w := c.WeightBytes(); w > (10+shardutil.MaxShards)*MinEntryBytes {
		t.Fatalf("weight = %d exceeds budget", w)
	}
}
