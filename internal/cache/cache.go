// Package cache implements the optional query result cache of the request
// manager (§2.4.2): it stores the result set associated with each read,
// provides strong consistency by invalidating entries that may contain
// stale data when an update executes, supports invalidation granularities
// from database-wide to table- and column-based, and can relax consistency
// with a staleness limit.
//
// The cache is sharded by key hash: each shard has its own mutex, LRU list
// and table index, so concurrent readers on the controller hot path do not
// serialize on a single lock. Statistics are atomic counters read without
// locking. Writes invalidate across all shards while holding one shard lock
// at a time; the scheduler's conflict-class sequencing serializes writes
// that share a table, so shard-by-shard invalidation cannot reorder
// conflicting updates (disjoint writes invalidate disjoint entries and may
// interleave freely).
package cache

import (
	"container/list"
	"encoding/binary"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"cjdbc/internal/backend"
	"cjdbc/internal/shardutil"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Granularity selects how precisely updates invalidate cached entries.
type Granularity int

// Invalidation granularities (§2.4.2).
const (
	// GranDatabase flushes the whole cache on any update.
	GranDatabase Granularity = iota
	// GranTable invalidates entries reading any written table.
	GranTable
	// GranColumn invalidates entries reading any written column of a
	// written table.
	GranColumn
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case GranDatabase:
		return "database"
	case GranTable:
		return "table"
	case GranColumn:
		return "column"
	}
	return "unknown"
}

// Weight accounting constants.
const (
	// MinEntryBytes is the per-entry weight floor: even an empty result
	// charges for its bookkeeping (entry struct, LRU element, map slots),
	// so unbounded numbers of tiny results cannot pile up.
	MinEntryBytes = 128
	// entryBytes sizes the byte budget per entry slot.
	entryBytes = 4096
)

// Config configures a ResultCache.
type Config struct {
	Granularity Granularity
	// MaxEntries is the LRU capacity (0 means 4096) and sets the byte budget
	// at 4 KiB per slot: entries charge ApproxBytes (floored at
	// MinEntryBytes), so one huge result cannot monopolize a shard; results
	// heavier than a whole shard's budget are not admitted at all.
	MaxEntries int
	// Staleness relaxes consistency: entries stay valid for this long
	// regardless of updates (0 keeps the cache strongly consistent).
	Staleness time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// ApproxBytes estimates a result set's memory footprint: a base charge plus
// per-row and per-value overheads plus variable-width payloads. It is the
// unit entries are weighed in.
func ApproxBytes(res *backend.Result) int {
	n := 64
	for _, c := range res.Columns {
		n += 16 + len(c)
	}
	for _, row := range res.Rows {
		n += 24 + int(unsafe.Sizeof(sqlval.Value{}))*len(row) // slice header + cells
		for i := range row {
			n += len(row[i].S)
		}
	}
	return n
}

// Stats counts cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64
	Invalidations int64
	Evictions     int64
}

// ResultCache is a strongly or loosely consistent query result cache.
type ResultCache struct {
	cfg    Config
	shards []rcShard
	mask   uint32

	hits          atomic.Int64
	misses        atomic.Int64
	puts          atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
}

type rcShard struct {
	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recent
	byTable map[string]map[*entry]bool
	max     int
	weight  int // sum of entry weights (approximate bytes)
	maxW    int // byte budget
}

type entry struct {
	key     string
	res     *backend.Result
	tables  []string
	cols    []string // read columns, when enumerable
	colsOK  bool
	weight  int // max(MinEntryBytes, ApproxBytes) against the byte budget
	created time.Time
	lruElem *list.Element
}

// New creates a cache.
func New(cfg Config) *ResultCache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	n := shardutil.Count(cfg.MaxEntries)
	perShard := (cfg.MaxEntries + n - 1) / n
	perShardBytes := (cfg.MaxEntries*entryBytes + n - 1) / n
	c := &ResultCache{cfg: cfg, shards: make([]rcShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[string]*entry)
		s.lru = list.New()
		s.byTable = make(map[string]map[*entry]bool)
		s.max = perShard
		s.maxW = perShardBytes
	}
	return c
}

// keyBufLen sizes the stack buffer a lookup builds its key in; only a key
// longer than this allocates.
const keyBufLen = 256

// AppendKey appends to dst the cache key of the statement text sql executed
// with the parameter vector params, and returns the extended buffer. The
// key is the text's length, the text, then each value as its kind byte and
// payload: the integer, bool or float bits as 8 bytes; a time's unix
// seconds, nanoseconds and zone offset; a string's or blob's length and
// bytes; nothing for NULL. Every part is self-delimiting, so the key is
// injective — two keys are equal only for the same text and the same
// values of the same kinds — and a statement run with literals (params
// nil) keys on its text alone.
func AppendKey(dst []byte, sql string, params []sqlval.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sql)))
	dst = append(dst, sql...)
	for i := range params {
		v := &params[i]
		dst = append(dst, byte(v.K))
		switch v.K {
		case sqlval.KindNull:
		case sqlval.KindString, sqlval.KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case sqlval.KindTime:
			t := v.Time()
			_, off := t.Zone()
			dst = binary.BigEndian.AppendUint64(dst, uint64(t.Unix()))
			dst = binary.BigEndian.AppendUint32(dst, uint32(t.Nanosecond()))
			dst = binary.BigEndian.AppendUint32(dst, uint32(int32(off)))
		default:
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.I))
		}
	}
	return dst
}

func (c *ResultCache) shardFor(key []byte) *rcShard {
	return &c.shards[shardutil.Hash(key)&c.mask]
}

// Get returns the cached result for a read written with literals, or nil on
// miss: GetParams of the trimmed text and no parameters.
func (c *ResultCache) Get(sql string) *backend.Result {
	return c.GetParams(strings.TrimSpace(sql), nil)
}

// GetParams returns the cached result of the read sql (normalized text)
// executed with params, or nil on miss. The key is built on the stack, so a
// lookup allocates nothing. Under a staleness limit, entries older than the
// limit are dropped here.
func (c *ResultCache) GetParams(sql string, params []sqlval.Value) *backend.Result {
	var buf [keyBufLen]byte
	k := AppendKey(buf[:0], sql, params)
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.entries[string(k)]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	if c.cfg.Staleness > 0 && c.cfg.Clock().Sub(e.created) > c.cfg.Staleness {
		s.removeLocked(e)
		s.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	s.lru.MoveToFront(e.lruElem)
	res := e.res
	s.mu.Unlock()
	c.hits.Add(1)
	return res
}

// Put stores a read's result. The statement provides the table and column
// footprint used for invalidation.
func (c *ResultCache) Put(sql string, st sqlparser.Statement, res *backend.Result) {
	if res == nil || sqlparser.Classify(st) != sqlparser.ClassRead {
		return
	}
	cols, colsOK := sqlparser.ReadColumns(st)
	c.PutFootprint(sql, st.Tables(), cols, colsOK, res)
}

// PutFootprint stores a read's result with a precomputed invalidation
// footprint, letting callers that hold a cached plan skip re-analyzing the
// statement. tables and cols must be lower-cased; colsOK=false means the
// read's columns cannot be enumerated (SELECT *), so any write to a read
// table invalidates the entry.
func (c *ResultCache) PutFootprint(sql string, tables, cols []string, colsOK bool, res *backend.Result) {
	c.PutParams(strings.TrimSpace(sql), nil, tables, cols, colsOK, res)
}

// PutParams is PutFootprint for the read sql (normalized text) executed
// with params, stored under the key GetParams looks up.
func (c *ResultCache) PutParams(sql string, params []sqlval.Value, tables, cols []string, colsOK bool, res *backend.Result) {
	if res == nil {
		return
	}
	var buf [keyBufLen]byte
	kb := AppendKey(buf[:0], sql, params)
	s := c.shardFor(kb)
	w := ApproxBytes(res)
	if w < MinEntryBytes {
		w = MinEntryBytes
	}
	s.mu.Lock()
	if w > s.maxW {
		// Heavier than the shard's whole byte budget: admitting it would
		// evict everything else and still overflow, so skip caching.
		s.mu.Unlock()
		return
	}
	if old, dup := s.entries[string(kb)]; dup {
		s.removeLocked(old)
	}
	k := string(kb)
	e := &entry{
		key:     k,
		res:     res,
		tables:  tables,
		cols:    cols,
		colsOK:  colsOK,
		weight:  w,
		created: c.cfg.Clock(),
	}
	e.lruElem = s.lru.PushFront(e)
	s.entries[k] = e
	s.weight += w
	for _, t := range e.tables {
		set := s.byTable[t]
		if set == nil {
			set = make(map[*entry]bool)
			s.byTable[t] = set
		}
		set[e] = true
	}
	var evicted int64
	for len(s.entries) > s.max || s.weight > s.maxW {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.removeLocked(oldest.Value.(*entry))
		evicted++
	}
	s.mu.Unlock()
	c.puts.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// InvalidateWrite drops the entries a write may have made stale, honouring
// the configured granularity, and returns how many entries were dropped.
// Under a staleness limit nothing is dropped: entries expire by age instead
// (§2.4.2 relaxed consistency).
func (c *ResultCache) InvalidateWrite(st sqlparser.Statement) int {
	if c.cfg.Staleness > 0 {
		return 0
	}
	var dropped int64
	switch c.cfg.Granularity {
	case GranDatabase:
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			n := len(s.entries)
			if n > 0 {
				s.reset()
				dropped += int64(n)
			}
			s.mu.Unlock()
		}
	case GranTable:
		for _, t := range st.Tables() {
			dropped += c.invalidateTableCols(t, nil, nil)
		}
	case GranColumn:
		written := sqlparser.WrittenColumns(st)
		var writtenSet map[string]bool
		if len(written) > 2 {
			writtenSet = make(map[string]bool, len(written))
			for _, w := range written {
				writtenSet[w] = true
			}
		}
		for _, t := range st.Tables() {
			dropped += c.invalidateTableCols(t, written, writtenSet)
		}
	}
	if dropped > 0 {
		c.invalidations.Add(dropped)
	}
	return int(dropped)
}

// invalidateTableCols drops entries reading table t. When written (or its
// map form writtenSet, preferred for non-trivial column sets) is non-empty,
// only entries whose read columns intersect the written columns — or whose
// columns cannot be enumerated — are dropped.
func (c *ResultCache) invalidateTableCols(t string, written []string, writtenSet map[string]bool) int64 {
	var dropped int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		set := s.byTable[t]
		if len(set) == 0 {
			s.mu.Unlock()
			continue
		}
		var victims []*entry
		for e := range set {
			if written == nil && writtenSet == nil || !e.colsOK || colsIntersect(e.cols, written, writtenSet) {
				victims = append(victims, e)
			}
		}
		for _, e := range victims {
			s.removeLocked(e)
			dropped++
		}
		s.mu.Unlock()
	}
	return dropped
}

// colsIntersect reports whether any read column was written. Small sets use
// the direct O(n·m) scan (cheaper than hashing); larger written sets are
// probed through the prebuilt map.
func colsIntersect(cols, written []string, writtenSet map[string]bool) bool {
	if writtenSet != nil {
		for _, c := range cols {
			if writtenSet[c] {
				return true
			}
		}
		return false
	}
	for _, x := range cols {
		for _, y := range written {
			if x == y {
				return true
			}
		}
	}
	return false
}

// Flush empties the cache.
func (c *ResultCache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.reset()
		s.mu.Unlock()
	}
}

func (s *rcShard) reset() {
	s.entries = make(map[string]*entry)
	s.lru.Init()
	s.byTable = make(map[string]map[*entry]bool)
	s.weight = 0
}

// WeightBytes returns the summed approximate byte weight of all cached
// entries, the quantity bounded by the 4 KiB-per-slot byte budget.
func (c *ResultCache) WeightBytes() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.weight
		s.mu.Unlock()
	}
	return n
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// StatsSnapshot returns a copy of the counters.
func (c *ResultCache) StatsSnapshot() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Puts:          c.puts.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
	}
}

func (s *rcShard) removeLocked(e *entry) {
	delete(s.entries, e.key)
	s.lru.Remove(e.lruElem)
	s.weight -= e.weight
	for _, t := range e.tables {
		if set := s.byTable[t]; set != nil {
			delete(set, e)
			if len(set) == 0 {
				delete(s.byTable, t)
			}
		}
	}
}
