package sqlengine

import (
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
// A chain keeps its ref under every key a version on it holds — updates and
// deletes leave the old key's ref behind so readers pinned at older epochs
// can still find old versions through it — and loses the ref when the last
// such version is cut (table.unindex); lookups always re-evaluate the full
// predicate, so a ref to a version the reader does not see is harmless.
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

// pop removes and returns the chain head if it carries the given writer
// stamp (undo of an uncommitted insert/update/delete; LIFO matches undo-log
// order), and returns nil otherwise.
func (ch *rowChain) pop(stamp uint64) *rowVersion {
	v := ch.head.Load()
	if v == nil || v.from.Load() != stamp {
		return nil
	}
	ch.head.Store(v.prev.Load())
	return v
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
	s.dirty = truncated(s.dirty)
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

// gcThreshold is how many superseded row versions may accrue before a
// statement end drains the tables' purge lists (gcStep): at most ≈ 35 KB of
// versions per engine. Session close runs the exact whole-catalog sweep
// (GC) whenever any debt is outstanding, whatever the threshold.
const gcThreshold = 256

// noteGarbage accrues superseded-version debt; once it crosses the engine's
// GC threshold the debt is handed to gcStep, inline, which drains the
// tables' purge lists — so a writer's statement end pays for the garbage
// recorded since the last step, never for a sweep over chains.
func (e *Engine) noteGarbage(n int) {
	if n <= 0 {
		return
	}
	if e.gcDebt.Add(int64(n)) >= e.gcEvery {
		e.gcDebt.Store(0)
		e.gcStep()
	}
}

// gcStep drains every table's purge list below one watermark. Its work is
// the reclaimable garbage plus O(1) per table: a list held back by a pinned
// reader stops at its first entry, a cut version compares its keys with its
// row's head, and only a key the head lost costs more (see dropRefs). Steps are serialized by gcBusy; a
// trigger that finds a step in flight simply drops its turn (the running
// step is already draining the same lists).
func (e *Engine) gcStep() {
	if !e.gcBusy.CompareAndSwap(false, true) {
		return
	}
	defer e.gcBusy.Store(false)
	w := e.watermark()
	sh := e.rshard()
	e.mu.RLock(sh)
	defer e.mu.RUnlock(sh)
	for _, t := range e.tables {
		t.store.Lock()
		t.purgeLocked(w)
		t.store.Unlock()
	}
}

// GC reclaims, across the whole catalog, every row version no pinned
// snapshot can reach: per table it drains the purge list, truncates every
// chain below the watermark, retires dead chains and compacts. It takes
// each table's latch in turn — never the engine-exclusive lock — so it runs
// beside reads and beside writes to other tables. Session close and tests
// use it for exact reclamation; the write path goes through gcStep.
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
		t.purgeLocked(w)
		for _, ch := range t.rows {
			if t.truncateChain(ch, w) {
				t.retire(ch)
			}
		}
		t.dropRefs()
		if t.dead > 0 {
			t.compactLocked()
		}
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
// or after watermark w can reach — everything strictly older than the newest
// version committed at or below w — and queues the refs only they held for
// the caller's dropRefs. It reports
// whether nothing a future snapshot could see survives — an undone insert's
// empty chain, or a committed tombstone at the head — so callers can retire
// the rowid. Caller holds the latch exclusively.
func (t *table) truncateChain(ch *rowChain, w uint64) (dead bool) {
	head := ch.head.Load()
	for v := head; v != nil; v = v.prev.Load() {
		if f := v.from.Load(); f&uncommittedBit == 0 && f <= w {
			cut := v.prev.Load()
			v.prev.Store(nil)
			if cut != nil {
				t.unindex(ch, cut, nil)
			}
			return v == head && v.row == nil
		}
	}
	return head == nil
}

// purgeEntry records one superseding version: v was pushed onto ch by an
// update or delete. Once v is committed at or below the watermark, every
// version older than it on ch is unreachable, and a tombstone v means the
// whole chain is.
type purgeEntry struct {
	ch *rowChain
	v  *rowVersion
}

// purgeLocked reclaims the purge list from the front while the entry's
// version is committed at or below w: it cuts the version off from what it
// superseded and retires the chain when the version is a tombstone, then
// drops the index refs only the cut versions held, each bucket rebuilt once
// (dropRefs). Push order is commit order
// within a table (exclusive locks are held to commit), so the first entry
// that is not reclaimable ends the drain; were that order to break, entries
// would only wait longer. Retired chains leave rows at once, and the scan
// order drops them in one compaction once they are a quarter of the slab:
// a delete costs the scan order amortized O(1). Caller holds the latch
// exclusively.
func (t *table) purgeLocked(w uint64) {
	i := 0
	for ; i < len(t.purge); i++ {
		p := t.purge[i]
		if f := p.v.from.Load(); f&uncommittedBit != 0 || f > w {
			break
		}
		if cut := p.v.prev.Load(); cut != nil {
			p.v.prev.Store(nil)
			t.unindex(p.ch, cut, nil)
		}
		if p.v.row == nil {
			t.retire(p.ch)
		}
	}
	t.dropRefs()
	// Keep the array, and keep the drained slots from pinning versions:
	// move what is left to the front when that costs no more than the
	// drain did, otherwise step past the drained prefix.
	if rest := len(t.purge) - i; rest <= i {
		copy(t.purge, t.purge[i:])
		clear(t.purge[rest:])
		t.purge = t.purge[:rest]
	} else {
		clear(t.purge[:i])
		t.purge = t.purge[i:]
	}
	if t.dead > 0 && 4*t.dead >= int(t.order.Load().n.Load()) {
		t.compactLocked()
	}
}

// retire removes a chain no future snapshot can see from rows: a
// committed tombstone below the watermark, or an undone insert. The cut that
// made it so dropped its index refs; its slab entry stays, resolving to
// nothing, until compactLocked.
func (t *table) retire(ch *rowChain) {
	if _, ok := t.rows[ch.id]; ok {
		delete(t.rows, ch.id)
		t.dead++
	}
}

// compactLocked drops retired chains from the scan order: it builds a fresh
// slab of the live chains, and readers keep iterating the slab they loaded.
// Caller holds the table latch exclusively.
func (t *table) compactLocked() {
	t.dead = 0
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
}
