package sqlengine

import (
	"sort"
	"sync"
	"sync/atomic"

	"cjdbc/internal/sqlval"
)

// This file is the engine's MVCC core: epoch-stamped immutable row versions,
// the global commit-epoch clock, per-session snapshot pins and the min-epoch
// garbage collector. Together they give the engine InnoDB-style consistent
// nonblocking reads — the property the paper's read-one-write-all design
// leans on: SELECTs resolve every row against a pinned epoch and never take
// the per-table storage latch, so readers never wait for writers, ever.

// uncommittedBit marks a rowVersion.from value as a writer stamp rather than
// a commit epoch: while a statement or transaction is in flight its versions
// carry uncommittedBit|writerID, visible only to the writing session itself.
// Commit replaces the stamp with the allocated commit epoch.
const uncommittedBit = uint64(1) << 63

// rowVersion is one immutable version of a row. row is the full column
// slice (nil for a delete tombstone) and is never mutated after publication;
// updates push a fresh version instead. from and prev are atomics because
// readers traverse chains with no latch while commit re-stamps from and the
// garbage collector truncates tails.
type rowVersion struct {
	from atomic.Uint64  // commit epoch, or uncommittedBit|writerID
	row  []sqlval.Value // nil = tombstone
	prev atomic.Pointer[rowVersion]
}

// rowChain is the version chain of one rowid, newest first. The chain
// pointer itself is stable for the life of the rowid and carries the rowid:
// the scan order and index ref lists hold bare chain pointers, so readers
// resolve visibility and order refs by rowid without touching the rows map.
// Index entries are insert-only — updates and deletes leave stale refs
// behind so readers pinned at older epochs can still find old versions
// through them; lookups always re-evaluate the full predicate, which makes
// stale refs harmless.
type rowChain struct {
	id   int64 // immutable
	head atomic.Pointer[rowVersion]
}

// visibleRow returns the newest version visible to a reader pinned at epoch
// ep with writer stamp stamp: the session's own uncommitted versions, or
// committed versions with epoch <= ep. nil means no visible version (never
// existed at ep, or tombstoned).
func (ch *rowChain) visibleRow(ep, stamp uint64) []sqlval.Value {
	for v := ch.head.Load(); v != nil; v = v.prev.Load() {
		f := v.from.Load()
		if f == stamp || (f&uncommittedBit == 0 && f <= ep) {
			return v.row
		}
	}
	return nil
}

// latestRow returns the chain head's row image — the writer view. Callers
// hold the table's exclusive lock (or have otherwise excluded concurrent
// writers), so the head is either committed or the caller's own version.
func (ch *rowChain) latestRow() []sqlval.Value {
	if v := ch.head.Load(); v != nil {
		return v.row
	}
	return nil
}

// push prepends a new version with the given stamp and returns it.
func (ch *rowChain) push(stamp uint64, row []sqlval.Value) *rowVersion {
	v := &rowVersion{row: row}
	v.from.Store(stamp)
	v.prev.Store(ch.head.Load())
	ch.head.Store(v)
	return v
}

// pop removes the chain head if it carries the given writer stamp (undo of
// an uncommitted insert/update/delete; LIFO matches undo-log order).
func (ch *rowChain) pop(stamp uint64) bool {
	v := ch.head.Load()
	if v == nil || v.from.Load() != stamp {
		return false
	}
	ch.head.Store(v.prev.Load())
	return true
}

// versionCount walks the chain and counts versions (GC accounting, tests).
func (ch *rowChain) versionCount() int {
	n := 0
	for v := ch.head.Load(); v != nil; v = v.prev.Load() {
		n++
	}
	return n
}

// orderSlab is one atomically published snapshot of a table's scan order.
// entries has fixed capacity; entries[:n] are valid. The single writer (the
// table latch holder) appends in place and publishes by storing n, so the
// common insert costs no allocation; growth and GC compaction allocate a
// fresh slab and republish the pointer, leaving concurrent readers iterating
// their own consistent snapshot.
type orderSlab struct {
	n       atomic.Int64
	entries []*rowChain
}

// epochClock is the engine's global commit-epoch clock. published is the
// newest epoch whose commit — and every earlier commit — has finished
// stamping its versions; readers pin it. Allocation and completion may
// interleave across disjoint-table committers, so completion advances
// published only across a gap-free prefix: a reader must never pin an epoch
// whose versions are not fully stamped yet.
type epochClock struct {
	published atomic.Uint64
	mu        sync.Mutex
	last      uint64          // newest allocated epoch
	done      map[uint64]bool // completed but not yet published (holes ahead)
}

// begin allocates the next commit epoch.
func (c *epochClock) begin() uint64 {
	c.mu.Lock()
	c.last++
	f := c.last
	c.mu.Unlock()
	return f
}

// complete marks epoch f fully stamped and advances published across the
// contiguous completed prefix.
func (c *epochClock) complete(f uint64) {
	c.mu.Lock()
	if c.done == nil {
		c.done = make(map[uint64]bool)
	}
	c.done[f] = true
	p := c.published.Load()
	for c.done[p+1] {
		delete(c.done, p+1)
		p++
	}
	c.published.Store(p)
	c.mu.Unlock()
}

// pinShard is one shard of the engine's session registry, padded so that
// session open/close on different shards never contend on a cache line. The
// GC watermark walks every shard; sessions register at NewSession and
// deregister at Close.
type pinShard struct {
	mu sync.Mutex
	m  map[*Session]struct{}
	_  [88]byte
}

// snapshotEpoch returns the session's pinned snapshot epoch, pinning the
// clock's current published epoch on first use (statement start in
// auto-commit, BEGIN in a transaction). The store-then-recheck loop closes
// the race with the garbage collector: once the second load confirms
// published has not moved past the pin, any later watermark must observe
// either the pin or a published value <= it.
func (s *Session) snapshotEpoch() uint64 {
	if p := s.pin.Load(); p != 0 {
		return p - 1
	}
	c := &s.engine.clock
	for {
		ep := c.published.Load()
		s.pin.Store(ep + 1) // pins store epoch+1 so 0 means "unpinned"
		if c.published.Load() == ep {
			return ep
		}
	}
}

// unpin releases the session's snapshot pin (statement end in auto-commit,
// COMMIT/ROLLBACK in a transaction).
func (s *Session) unpin() { s.pin.Store(0) }

// readView is the visibility context of one statement: a pinned snapshot
// epoch plus the session's own-writes stamp. (The pre-MVCC latched read
// mode it used to carry was retired in PR 8: the snapshot==latched oracle
// was re-proven as a planned==full-scan snapshot oracle over the ordered-
// index paths, so the latched branch had no remaining caller.)
type readView struct {
	ep    uint64
	stamp uint64
}

// resolve returns the row the view sees in ch, or nil.
func (rv readView) resolve(ch *rowChain) []sqlval.Value {
	return ch.visibleRow(rv.ep, rv.stamp)
}

// commitVersions stamps every version the session's current work created
// with a freshly allocated commit epoch and publishes it. It runs before
// lock release, so by the time the next ticket holder (or any later
// snapshot) proceeds, the data it must observe is committed — the ordering
// the cluster's replica-determinism argument relies on.
func (s *Session) commitVersions() {
	if len(s.dirty) == 0 {
		return
	}
	c := &s.engine.clock
	f := c.begin()
	for _, v := range s.dirty {
		v.from.Store(f)
	}
	c.complete(f)
	s.dirty = nil
}

// watermark returns the newest epoch no live snapshot can be pinned before:
// min(published, every session pin). Superseded versions at or below it are
// unreachable and may be reclaimed.
func (e *Engine) watermark() uint64 {
	w := e.clock.published.Load()
	for i := range e.pins {
		sh := &e.pins[i]
		sh.mu.Lock()
		for s := range sh.m {
			if p := s.pin.Load(); p != 0 && p-1 < w {
				w = p - 1
			}
		}
		sh.mu.Unlock()
	}
	return w
}

// registerSession adds s to the pin registry.
func (e *Engine) registerSession(s *Session) {
	sh := &e.pins[s.shard&e.mu.mask]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[*Session]struct{})
	}
	sh.m[s] = struct{}{}
	sh.mu.Unlock()
}

// deregisterSession removes s from the pin registry.
func (e *Engine) deregisterSession(s *Session) {
	sh := &e.pins[s.shard&e.mu.mask]
	sh.mu.Lock()
	delete(sh.m, s)
	sh.mu.Unlock()
}

// noteGarbage accrues superseded-version debt; once it crosses the engine's
// GC threshold the debt is handed to the incremental sweeper — one bounded
// per-table step, inline — so a writer's statement end never pays for a
// whole-catalog sweep.
func (e *Engine) noteGarbage(n int) {
	if n <= 0 {
		return
	}
	if e.gcDebt.Add(int64(n)) >= e.gcEvery {
		e.gcDebt.Store(0)
		e.gcStep()
	}
}

// gcChainBatch bounds how many chains one incremental GC step touches.
// Tables at or below the batch get the full sweep (truncation, chain
// removal, slab compaction, index pruning) in one step — which keeps the
// small-table reclamation tests exact — while larger tables amortize
// truncation across steps and pay the compaction pass only once per lap.
const gcChainBatch = 4096

// gcStep runs one bounded increment of the garbage collector: it picks the
// next table in round-robin order that has reclaimable debt and sweeps at
// most gcChainBatch of its chains, resuming at the table's cursor. Steps are
// serialized by gcBusy; a trigger that finds a step in flight simply drops
// its turn (the running step is already draining the same debt).
func (e *Engine) gcStep() {
	if !e.gcBusy.CompareAndSwap(false, true) {
		return
	}
	defer e.gcBusy.Store(false)
	w := e.watermark()
	sh := e.rshard()
	e.mu.RLock(sh)
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	tables := make([]*table, len(names))
	for i, name := range names {
		tables[i] = e.tables[name]
	}
	e.mu.RUnlock(sh)
	// One full rotation at most: sweep the first table with pending garbage
	// or an unfinished incremental lap, starting after the last table swept.
	for range tables {
		t := tables[e.gcNext%len(tables)]
		e.gcNext++
		t.store.Lock()
		if t.garbage == 0 && t.gcCursor == 0 {
			t.store.Unlock()
			continue
		}
		t.gcStepLocked(w, gcChainBatch)
		t.store.Unlock()
		return
	}
}

// GC reclaims row versions no pinned snapshot can reach across the whole
// catalog: for every chain it drops versions strictly older than the newest
// committed version at or below the watermark, removes chains whose
// surviving state is a committed tombstone (or an undone insert), and prunes
// index refs — hash buckets, ordered-view nodes — and order entries pointing
// at removed chains. It takes each table's latch briefly — never the
// engine-exclusive lock — so it runs concurrently with reads and with writes
// to other tables. Session close and tests use it for exact reclamation; the
// write path goes through gcStep instead.
func (e *Engine) GC() {
	e.gcDebt.Store(0)
	w := e.watermark()
	sh := e.rshard()
	e.mu.RLock(sh)
	tables := make([]*table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.RUnlock(sh)
	for _, t := range tables {
		t.store.Lock()
		t.gcCursor = 0
		t.gcLocked(w)
		t.store.Unlock()
	}
}

// VersionStats reports chain/version totals across the catalog, for leak
// checks and monitoring.
type VersionStats struct {
	Chains   int
	Versions int
}

// VersionStatsSnapshot counts chains and versions in every catalog table.
func (e *Engine) VersionStatsSnapshot() VersionStats {
	sh := e.rshard()
	e.mu.RLock(sh)
	tables := make([]*table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.RUnlock(sh)
	var vs VersionStats
	for _, t := range tables {
		t.store.Lock()
		for _, ch := range t.rows {
			vs.Chains++
			vs.Versions += ch.versionCount()
		}
		t.store.Unlock()
	}
	return vs
}

// truncateChain drops the versions of one chain that no snapshot pinned at
// or after watermark w can reach: everything strictly older than the newest
// version committed at or below w. It reports whether the chain has
// collapsed to nothing a future snapshot could see — a committed tombstone
// (collapsed=true with a surviving head) or an undone insert (empty=true) —
// so callers can retire the rowid.
func truncateChain(ch *rowChain, w uint64) (empty, collapsed bool) {
	head := ch.head.Load()
	if head == nil {
		return true, false
	}
	var keep *rowVersion
	for v := head; v != nil; v = v.prev.Load() {
		f := v.from.Load()
		if f&uncommittedBit == 0 && f <= w {
			keep = v
			break
		}
	}
	if keep == nil {
		return false, false
	}
	keep.prev.Store(nil)
	return false, keep == head && keep.row == nil
}

// gcStepLocked runs one bounded GC increment on this table. Small tables
// (at or below batch chains) get the exact full sweep. Larger tables pay
// truncation — the per-chain O(versions) part, which is the bulk of GC work
// under update churn — over successive batches tracked by gcCursor, and run
// the full sweep (which also removes dead chains, compacts the order slab
// and prunes indexes) only on the step that finishes a lap. Caller holds the
// table latch exclusively.
func (t *table) gcStepLocked(w uint64, batch int) {
	slab := t.order.Load()
	n := int(slab.n.Load())
	if n <= batch {
		t.gcCursor = 0
		t.gcLocked(w)
		return
	}
	end := t.gcCursor + batch
	if end >= n {
		end = n
	}
	for i := t.gcCursor; i < end; i++ {
		truncateChain(slab.entries[i], w)
	}
	if end >= n {
		// Lap complete: the full sweep retires dead chains and re-zeroes the
		// garbage counter; chains truncated above are cheap to revisit.
		t.gcCursor = 0
		t.gcLocked(w)
		return
	}
	t.gcCursor = end
}

// gcLocked reclaims unreachable versions of one table. Caller holds the
// table latch exclusively; index buckets are swapped wholesale under idxMu
// so latch-free readers always see a complete bucket.
func (t *table) gcLocked(w uint64) {
	t.garbage = 0
	removed := false
	for id, ch := range t.rows {
		empty, collapsed := truncateChain(ch, w)
		if empty || collapsed {
			// An undone insert that never committed anything, or a chain
			// collapsed to a committed tombstone every live snapshot agrees
			// on: the rowid is gone.
			delete(t.rows, id)
			removed = true
		}
	}
	if !removed {
		return
	}
	// Compact the scan order into a fresh slab (readers keep iterating the
	// slab they loaded) and prune index refs to removed chains.
	slab := t.order.Load()
	n := int(slab.n.Load())
	live := make([]*rowChain, 0, len(t.rows))
	for _, ch := range slab.entries[:n] {
		if _, ok := t.rows[ch.id]; ok {
			live = append(live, ch)
		}
	}
	ns := &orderSlab{entries: live[:cap(live)]}
	ns.n.Store(int64(len(live)))
	t.order.Store(ns)

	for _, ix := range t.indexes {
		if ix.ord != nil {
			// A single-column index's hash buckets are its skiplist nodes'
			// ref lists: one walk prunes both.
			ix.ord.gcLocked(t, ix.m)
			continue
		}
		type bucketEdit struct {
			key  string
			refs []*rowChain // nil = delete the bucket
		}
		var edits []bucketEdit
		for key, bkt := range ix.m {
			dirty := false
			kept := bkt.refs[:0:0]
			for _, ch := range bkt.refs {
				if _, ok := t.rows[ch.id]; ok {
					kept = append(kept, ch)
				} else {
					dirty = true
				}
			}
			if dirty {
				edits = append(edits, bucketEdit{key: key, refs: kept})
			}
		}
		if len(edits) == 0 {
			continue
		}
		t.idxMu.Lock()
		for _, ed := range edits {
			if len(ed.refs) == 0 {
				delete(ix.m, ed.key)
			} else {
				ix.m[ed.key] = &idBucket{refs: ed.refs}
			}
		}
		t.idxMu.Unlock()
	}
}
