// Package plancache implements the request manager's parsing cache
// (§2.4.2): a statement is parsed and analyzed once, and every later
// execution of the same SQL text reuses the parsed tree and its precomputed
// routing metadata. Combined with the result cache this keeps the
// controller's per-request overhead to a hash lookup on repeat statements.
//
// Cached plans are immutable by contract: an execution reads its values
// beside the tree (sqlparser.Bound), and a write's macros become parameter
// slots before its plan is shared. The cache itself is a sharded LRU —
// per-shard mutex and recency list — so concurrent sessions do not
// serialize on one lock.
package plancache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"cjdbc/internal/shardutil"
	"cjdbc/internal/sqlparser"
)

// DefaultMaxEntries bounds the cache when the configuration leaves the
// capacity at zero.
const DefaultMaxEntries = 4096

// Plan is one parsed, analyzed statement. All fields are computed once at
// admission and never written afterwards, so a Plan may be read from any
// goroutine without synchronization.
type Plan struct {
	// SQL is the normalized statement text, which is also the cache key.
	SQL string
	// Stmt is the shared parsed tree. Never mutate it: clone first.
	Stmt sqlparser.Statement
	// Class is the routing class (read / write / demarcation).
	Class sqlparser.StatementClass
	// Tables lists the referenced tables (lower-cased, deduplicated).
	Tables []string
	// ReadCols enumerates the columns a read references, when enumerable.
	ReadCols []string
	// ReadColsOK reports whether ReadCols is exhaustive (false for SELECT *).
	ReadColsOK bool
	// NumParams is the number of ? placeholders.
	NumParams int
	// HasMacros reports whether the text calls a NOW()/RAND()-style macro:
	// a read that does bypasses the result cache, a write's calls are Slots.
	HasMacros bool
	// Slots, on a write that calls a macro, says what fills each parameter
	// of Stmt, whose macro calls SlotMacros made parameters; SlotSQL is
	// Stmt's text. Build leaves both unset.
	Slots   []sqlparser.Slot
	SlotSQL string
	// ConflictTables / ConflictGlobal are the statement's precomputed
	// conflict class (sorted, deduplicated table footprint, or
	// conflicts-with-everything) for the scheduler's conflict-class write
	// sequencing.
	ConflictTables []string
	ConflictGlobal bool
}

// Normalize turns SQL text into the cache key. It matches the result cache's
// key normalization so one statement text addresses both caches identically.
func Normalize(sql string) string { return strings.TrimSpace(sql) }

// Build analyzes a freshly parsed statement into an immutable Plan. sql must
// already be normalized.
func Build(sql string, st sqlparser.Statement) *Plan {
	cols, colsOK := sqlparser.ReadColumns(st)
	cTables, cGlobal := sqlparser.ConflictClass(st)
	return &Plan{
		SQL:            sql,
		Stmt:           st,
		Class:          sqlparser.Classify(st),
		Tables:         st.Tables(),
		ReadCols:       cols,
		ReadColsOK:     colsOK,
		NumParams:      sqlparser.NumParams(st),
		HasMacros:      sqlparser.HasMacros(st),
		ConflictTables: cTables,
		ConflictGlobal: cGlobal,
	}
}

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
	// Deferred counts Offer calls that the doorkeeper held out of the LRU
	// (first sight of a literal-bound text).
	Deferred int64
}

// Cache is a sharded LRU of parsed plans, safe for concurrent use.
type Cache struct {
	shards []shard
	mask   uint32

	hits      atomic.Int64
	misses    atomic.Int64
	puts      atomic.Int64
	evictions atomic.Int64
	deferred  atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*list.Element // value: *Plan wrapped in lruItem
	lru     *list.List               // front = most recent
	max     int
	// recent is the admission doorkeeper: one hash slot per recently missed
	// literal-bound statement text (0 = empty). A one-off statement leaves
	// only its hash here; only a second miss while the hash survives admits
	// the plan, so auto-generated never-repeating SQL cannot churn the LRU.
	recent []uint32
}

type lruItem struct {
	key  string
	plan *Plan
}

// New creates a cache holding up to maxEntries plans (0 means
// DefaultMaxEntries). Capacity is split evenly across shards.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	n := shardutil.Count(maxEntries)
	perShard := (maxEntries + n - 1) / n
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].max = perShard
		c.shards[i].recent = make([]uint32, doorkeeperSlots)
	}
	return c
}

// doorkeeperSlots sizes each shard's recent-miss table. Collisions only
// admit a one-off early — never reject a repeater — so small is fine.
const doorkeeperSlots = 512

func (c *Cache) shardFor(key string) *shard {
	return &c.shards[shardutil.Hash(key)&c.mask]
}

// Get returns the cached plan for normalized SQL text, or nil on miss.
func (c *Cache) Get(sql string) *Plan {
	s := c.shardFor(sql)
	s.mu.Lock()
	el, ok := s.entries[sql]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	s.lru.MoveToFront(el)
	p := el.Value.(*lruItem).plan
	s.mu.Unlock()
	c.hits.Add(1)
	return p
}

// Offer submits a freshly built plan for admission. Parameterized plans
// (placeholders: the prepared-statement shape that repeats by construction)
// admit immediately; literal-bound plans pass the doorkeeper — admitted
// only on their second sighting — mirroring how the ordered/distributed
// write path bypasses admission for its literal-bound SQL. This keeps
// auto-generated one-off statements (unique literals baked into the text)
// from evicting the hot repeating plans the cache exists for.
func (c *Cache) Offer(p *Plan) {
	if p.NumParams > 0 {
		c.Put(p)
		return
	}
	h := shardutil.Hash(p.SQL)
	if h == 0 {
		h = 1 // 0 marks an empty doorkeeper slot
	}
	s := c.shardFor(p.SQL)
	slot := (h >> 7) % doorkeeperSlots
	s.mu.Lock()
	seen := s.recent[slot] == h
	if !seen {
		s.recent[slot] = h
	}
	s.mu.Unlock()
	if !seen {
		c.deferred.Add(1)
		return
	}
	c.Put(p)
}

// Put admits a plan, evicting the shard's least recently used entry when
// over capacity. Re-admitting an existing key refreshes its recency.
func (c *Cache) Put(p *Plan) {
	s := c.shardFor(p.SQL)
	s.mu.Lock()
	if el, dup := s.entries[p.SQL]; dup {
		el.Value.(*lruItem).plan = p
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		c.puts.Add(1)
		return
	}
	s.entries[p.SQL] = s.lru.PushFront(&lruItem{key: p.SQL, plan: p})
	var evicted int64
	for len(s.entries) > s.max {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		it := oldest.Value.(*lruItem)
		delete(s.entries, it.key)
		s.lru.Remove(oldest)
		evicted++
	}
	s.mu.Unlock()
	c.puts.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Flush empties the cache.
func (c *Cache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// StatsSnapshot returns a copy of the counters.
func (c *Cache) StatsSnapshot() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
		Deferred:  c.deferred.Load(),
	}
}
