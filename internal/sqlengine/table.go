// Package sqlengine implements the database backend engine the cluster
// replicates: an in-memory relational engine with a catalog, typed rows,
// hash indexes, strict two-phase table locking for writes, undo-log
// transactions and MVCC snapshot reads. It plays the role
// MySQL/PostgreSQL/Firebird play in the paper: a black box behind a driver
// interface that executes SQL statements transactionally.
package sqlengine

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Column describes one column of a table schema.
type Column struct {
	Name          string // lower-cased
	Type          sqlval.Kind
	NotNull       bool
	PrimaryKey    bool
	AutoIncrement bool
	Default       *sqlparser.Expr
}

// Schema is the ordered column list of a table.
type Schema struct {
	Name    string // lower-cased table name
	Columns []Column
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	name = strings.ToLower(name)
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in declaration order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i := range s.Columns {
		out[i] = s.Columns[i].Name
	}
	return out
}

// index is a hash index over one or more columns. Buckets hold chain refs
// and are insert-only: updates and deletes never remove entries, because a
// reader pinned at an older epoch must still find the old version of a row
// through the key it had then. Stale refs are harmless — every access path
// re-evaluates its full predicate against the resolved row — and the
// garbage collector prunes refs whose chains it reclaims. Buckets are held
// by pointer so the hot add path mutates in place.
//
// A key lives in one of two maps, which get and put pick between. A
// single-column index keeps an integer-class key — sqlval.Value.IntKey ok:
// an INTEGER, a BOOLEAN or an integral FLOAT — in ints, as the int64
// itself, so the key costs no string and the write path builds no bytes
// for it. Every other key is its bytes in m: a value's AppendKey bytes, or
// a multi-column index's composite key. The classes are the ones the key
// bytes draw (only an integer-class key's bytes begin "\x00i"), so two
// values share a bucket exactly when their key bytes are equal. Probing m
// with scratch bytes costs no string (Go elides the string(b) copy for map
// lookups); only a brand-new key materializes one.
type index struct {
	name    string
	columns []int // column positions
	unique  bool
	ints    map[int64]*idBucket  // integer-class keys of a single-column index
	m       map[string]*idBucket // every other key, as its bytes
	// ord is the ordered view of a single-column index: a skiplist keyed by
	// sqlval collation order, serving range predicates and ORDER BY ...
	// LIMIT scans. Its nodes own the ref lists: ints and m map each key to
	// its node's bucket, so a key's refs are stored once. Multi-column
	// indexes stay hash-only and own their buckets. See ordered.go.
	ord *ordIndex
}

// ixKey is one index key: an integer-class key of a single-column index as
// the int64 i (isInt), any other as its bytes b.
type ixKey struct {
	b     []byte
	i     int64
	isInt bool
}

// valueKey is v's key in a single-column index. Only a key that is not
// integer-class appends to buf.
func valueKey(buf []byte, v sqlval.Value) ixKey {
	if i, ok := v.IntKey(); ok {
		return ixKey{i: i, isInt: true}
	}
	return ixKey{b: v.AppendKey(buf)}
}

// keyOf is ix's key of row, laid out as lookup builds it from a probe
// value: a single-column key is valueKey's, a multi-column key is composite
// (appendKeyPart) bytes appended to buf.
func (ix *index) keyOf(buf []byte, row []sqlval.Value) ixKey {
	if len(ix.columns) == 1 {
		return valueKey(buf, row[ix.columns[0]])
	}
	for _, c := range ix.columns {
		buf = appendKeyPart(buf, row[c])
	}
	return ixKey{b: buf}
}

// equal reports whether k and o are one key.
func (k ixKey) equal(o ixKey) bool {
	return k.isInt == o.isInt && k.i == o.i && string(k.b) == string(o.b)
}

// get returns the bucket under k, or nil. Latch-free readers hold idxMu
// around it; the writer, the only one to mutate the maps, need not.
func (ix *index) get(k ixKey) *idBucket {
	if k.isInt {
		return ix.ints[k.i]
	}
	return ix.m[string(k.b)]
}

// put publishes bkt under k, or deletes k when bkt is nil. Caller holds the
// table latch exclusively and idxMu.
func (ix *index) put(k ixKey, bkt *idBucket) {
	switch {
	case k.isInt && bkt == nil:
		delete(ix.ints, k.i)
	case k.isInt:
		if ix.ints == nil {
			ix.ints = make(map[int64]*idBucket)
		}
		ix.ints[k.i] = bkt
	case bkt == nil:
		delete(ix.m, string(k.b))
	default:
		if ix.m == nil {
			ix.m = make(map[string]*idBucket)
		}
		ix.m[string(k.b)] = bkt
	}
}

// idBucket is one key's chain-ref list, guarded by table.idxMu. A new
// bucket stores its first ref inline (init), so a key held by one row costs
// no list of its own; the second ref's append finds no capacity and moves
// the list out. Nothing writes into one once the bucket is published:
// latch-free readers hold refs[:n:n].
type idBucket struct {
	refs []*rowChain
	one  [1]*rowChain
}

// init makes ch the bucket's only ref, stored inline.
func (b *idBucket) init(ch *rowChain) {
	b.one[0] = ch
	b.refs = b.one[:1:1]
}

// add appends ch unless the list already holds it (re-updating a row back
// to a key it had must not duplicate the ref, or scans through the bucket
// would return the row twice). Caller holds the table latch exclusively, so
// it reads refs without idxMu; idxMu is taken around the append because
// readers copy ref slices with no latch.
func (b *idBucket) add(t *table, ch *rowChain) {
	if slices.Contains(b.refs, ch) {
		return
	}
	t.idxMu.Lock()
	b.refs = append(b.refs, ch)
	t.idxMu.Unlock()
}

// live returns the bucket's own ref slice capped at its current length.
// Buckets are insert-only, so no entry below that length is ever rewritten
// and a writer's append lands past the cap: callers may hold and iterate it
// while writers keep appending, but must copy it before they reorder it.
func (b *idBucket) live(t *table) []*rowChain {
	t.idxMu.RLock()
	refs := b.refs[:len(b.refs):len(b.refs)]
	t.idxMu.RUnlock()
	return refs
}

// appendKeyPart appends v to b as one part of a composite key: the
// uvarint length of v's AppendKey bytes, then those bytes. Multi-column
// indexes, GROUP BY and DISTINCT build their keys from it. Because every
// part says how long it is, two tuples have equal composite keys iff
// their parts have equal AppendKey bytes one by one — which a separator
// byte could not promise, since a string's key may contain any byte.
func appendKeyPart(b []byte, v sqlval.Value) []byte {
	n := len(b)
	b = v.AppendKey(append(b, 0))
	m := len(b) - n - 1
	if m < 0x80 {
		b[n] = byte(m)
		return b
	}
	// A long part: widen the one-byte prefix to the full uvarint.
	var pre [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(pre[:], uint64(m))
	b = append(b, pre[:w-1]...)
	copy(b[n+w:], b[n+1:n+1+m])
	copy(b[n:], pre[:w])
	return b
}

// appendRowKey appends the composite key of vals to b.
func appendRowKey(b []byte, vals []sqlval.Value) []byte {
	for _, v := range vals {
		b = appendKeyPart(b, v)
	}
	return b
}

// liveConflict reports whether some row other than self is currently live
// (writer view) under the given key. Because buckets keep stale refs,
// presence alone proves nothing: each candidate's current row is resolved
// and its key rebuilt for comparison. Caller holds the table latch
// exclusively.
func (ix *index) liveConflict(self *rowChain, key ixKey) bool {
	bkt := ix.get(key)
	if bkt == nil {
		return false
	}
	var sb [48]byte
	for _, ch := range bkt.refs {
		if ch == self {
			continue
		}
		if row := ch.latestRow(); row != nil && ix.keyOf(sb[:0], row).equal(key) {
			return true
		}
	}
	return false
}

// table is the storage for one table: schema, version chains keyed by
// rowid, an atomically published scan order, and insert-only hash indexes.
//
// Locking: store is the per-table storage latch, held exclusively by DML,
// undo replay and GC — never by readers. SELECT resolves rows through the
// MVCC snapshot machinery: the scan order is read through an atomic slab
// pointer, index buckets are read under idxMu (held only for the length
// of a map probe), and each chain resolves to the newest version visible at
// the session's pinned epoch. DDL holds the engine lock fully exclusive.
// rows and keyBuf are touched only under store exclusive (or the full
// engine lock), so they are never shared between concurrent writers.
type table struct {
	store   sync.RWMutex
	schema  *Schema
	rows    map[int64]*rowChain // writer/GC side only; readers go via order/indexes
	order   atomic.Pointer[orderSlab]
	nextID  int64
	autoInc int64
	// idxMu guards the index maps and bucket ref slices against latch-free
	// readers. Writers (who already hold store exclusive) take it only
	// around individual map/bucket mutations, readers only around probes,
	// so neither side ever holds it for a statement's duration.
	idxMu   sync.RWMutex
	indexes map[string]*index
	keyBuf  [2][]byte // reusable index-key scratch for the write path (see key)
	// purge lists the versions updates and deletes pushed, oldest first
	// (see purgeLocked); dead counts chains retired from rows since the
	// last compaction. Both guarded by store exclusive.
	purge []purgeEntry
	dead  int
	// defaults holds the columns' bound DEFAULT expressions (nil where a
	// column has none). The engine has no ALTER TABLE, so they are bound
	// once, when the table is created.
	defaults []*bexpr
}

func newTable(schema *Schema) *table {
	t := &table{
		schema:  schema,
		rows:    make(map[int64]*rowChain),
		indexes: make(map[string]*index),
	}
	t.order.Store(&orderSlab{})
	t.defaults = defaults(schema)
	// Implicit unique index on the primary key column(s).
	var pkCols []int
	for i, c := range schema.Columns {
		if c.PrimaryKey {
			pkCols = append(pkCols, i)
		}
	}
	if len(pkCols) > 0 {
		pk := &index{name: "__pk", columns: pkCols, unique: true}
		if len(pkCols) == 1 {
			pk.ord = newOrdIndex()
		}
		t.indexes["__pk"] = pk
	}
	return t
}

// appendOrder publishes a new chain at the tail of the scan order. Within
// slab capacity the entry is written in place and published by the atomic
// length store; growth allocates a doubled slab and republishes the
// pointer. Caller holds the table latch exclusively.
func (t *table) appendOrder(ch *rowChain) {
	slab := t.order.Load()
	n := int(slab.n.Load())
	if n == len(slab.entries) {
		newCap := 2 * len(slab.entries)
		if newCap < 16 {
			newCap = 16
		}
		ns := &orderSlab{entries: make([]*rowChain, newCap)}
		copy(ns.entries, slab.entries[:n])
		ns.entries[n] = ch
		ns.n.Store(int64(n + 1))
		t.order.Store(ns)
		return
	}
	slab.entries[n] = ch
	slab.n.Store(int64(n + 1))
}

// key builds ix's key of row in write scratch buffer i, 0 or 1, so that a
// caller can hold two keys at once. Caller holds the table latch
// exclusively.
func (t *table) key(i int, ix *index, row []sqlval.Value) ixKey {
	k := ix.keyOf(t.keyBuf[i][:0], row)
	if k.b != nil {
		t.keyBuf[i] = k.b
	}
	return k
}

// addRef records ch under key, the index key of row. A known key appends to
// its bucket; a new key gets a bucket — for a single-column index, the
// bucket of the skiplist node ordIndex.insert links for it — and the map
// publishes it. Caller holds the table latch exclusively; idxMu is taken
// around the mutations because readers probe buckets with no latch.
func (ix *index) addRef(t *table, key ixKey, row []sqlval.Value, ch *rowChain) {
	if bkt := ix.get(key); bkt != nil {
		bkt.add(t, ch)
		return
	}
	var bkt *idBucket
	if ix.ord == nil {
		bkt = new(idBucket)
		bkt.init(ch)
	} else {
		// Sharing one list between the map and the skiplist relies on the
		// map's key equality and the skiplist's Compare == 0 being one
		// relation: within one kind class sqlval.Key equality holds iff
		// Compare is 0, and stored values are coerced to their column's
		// kind, so this key has no node yet and the node made for it is
		// the one every later row with an equal key must reach.
		bkt = ix.ord.insert(t, row[ix.columns[0]], ch)
	}
	t.idxMu.Lock()
	ix.put(key, bkt)
	t.idxMu.Unlock()
}

// insertRow adds a row as a new version chain stamped with the writer's
// stamp, maintains all indexes, and returns the chain and the version (for
// the session's undo log and commit-stamping dirty list).
func (t *table) insertRow(row []sqlval.Value, stamp uint64) (*rowChain, *rowVersion, error) {
	// Check all unique indexes before mutating any.
	for _, ix := range t.indexes {
		if ix.unique && ix.liveConflict(nil, t.key(0, ix, row)) {
			return nil, nil, errf("unique constraint violation on %s.%s", t.schema.Name, ix.name)
		}
	}
	ch := &rowChain{id: t.nextID}
	t.nextID++
	v := ch.push(stamp, row)
	t.rows[ch.id] = ch
	for _, ix := range t.indexes {
		ix.addRef(t, t.key(0, ix, row), row, ch)
	}
	t.appendOrder(ch)
	return ch, v, nil
}

// deleteRow pushes a tombstone version onto a live row's chain. Index refs
// stay: older snapshots still resolve the previous versions through them.
func (t *table) deleteRow(ch *rowChain, stamp uint64) *rowVersion {
	v := ch.push(stamp, nil)
	t.purge = append(t.purge, purgeEntry{ch, v})
	return v
}

// updateRow pushes a new version onto a live row's chain, maintaining
// indexes and checking unique constraints against other live rows.
func (t *table) updateRow(ch *rowChain, newRow []sqlval.Value, stamp uint64) (*rowVersion, error) {
	old := ch.latestRow()
	for _, ix := range t.indexes {
		if !ix.unique {
			continue
		}
		if nk := t.key(0, ix, newRow); !nk.equal(t.key(1, ix, old)) && ix.liveConflict(ch, nk) {
			return nil, errf("unique constraint violation on %s.%s", t.schema.Name, ix.name)
		}
	}
	v := ch.push(stamp, newRow)
	t.purge = append(t.purge, purgeEntry{ch, v})
	// Publish the new key in every index whose key changed; the old ref
	// stays behind for older snapshots.
	for _, ix := range t.indexes {
		if nk := t.key(0, ix, newRow); !nk.equal(t.key(1, ix, old)) {
			ix.addRef(t, nk, newRow, ch)
		}
	}
	return v, nil
}

// popVersion undoes the newest version of a row if it carries the given
// writer stamp (rollback / failed-statement undo). Undo runs newest first
// while the table lock is still held, so a popped update or delete is the
// purge list's tail entry; a popped insert leaves an empty chain, retired
// at once.
func (t *table) popVersion(ch *rowChain, stamp uint64) {
	v := ch.pop(stamp)
	if v == nil {
		return
	}
	if n := len(t.purge) - 1; n >= 0 && t.purge[n].v == v {
		t.purge[n] = purgeEntry{}
		t.purge = t.purge[:n]
	}
	if ch.head.Load() == nil {
		t.retire(ch)
	}
}

// scanSnap calls f for each row visible to the read view, in insertion
// order. It takes no latch: the order slab is an atomic snapshot and each
// chain resolves against the pinned epoch.
func (t *table) scanSnap(rv readView, f func(row []sqlval.Value) bool) {
	slab := t.order.Load()
	n := int(slab.n.Load())
	for _, ch := range slab.entries[:n] {
		if row := rv.resolve(ch); row != nil {
			if !f(row) {
				return
			}
		}
	}
}

// scanLen is the number of chains in the scan order: the rows a scan
// visits, at least the rows live at any snapshot.
func (t *table) scanLen() int { return int(t.order.Load().n.Load()) }

// lookup returns the chain refs under v's key. It runs on the latch-free
// read path: a probe key that is not integer-class is built in a stack
// buffer, and idxMu is held only for the probe. The slice returned is the
// bucket's own, capped at its current length (see idBucket.live). Refs may
// be stale; callers must resolve each chain and re-check their predicate.
// ix is a single-column index of t.
func (ix *index) lookup(t *table, v sqlval.Value) (refs []*rowChain) {
	var buf [48]byte
	k := valueKey(buf[:0], v)
	t.idxMu.RLock()
	if bkt := ix.get(k); bkt != nil {
		refs = bkt.refs[:len(bkt.refs):len(bkt.refs)]
	}
	t.idxMu.RUnlock()
	return refs
}

// rowidOrder returns refs ascending by rowid. Rowids are assigned in
// insertion order, so an index's ref list is usually in order already and
// is returned as is; only a list whose ids are not strictly ascending (an
// update moved an older row to the key, or a merged list repeats a rowid)
// is copied and sorted. An index's own slice is never reordered.
func rowidOrder(refs []*rowChain) []*rowChain {
	for i := 1; i < len(refs); i++ {
		if refs[i].id <= refs[i-1].id {
			refs = slices.Clone(refs)
			slices.SortFunc(refs, func(a, b *rowChain) int { return cmp.Compare(a.id, b.id) })
			return refs
		}
	}
	return refs
}

// indexOn returns the single-column index on colIdx, or nil. When several
// cover the column the first by name is chosen, so every replica and every
// binding picks the same one. Binding calls it, under the catalog lock, so
// no DDL changes the index map meanwhile.
func (t *table) indexOn(colIdx int) *index {
	var best *index
	for _, ix := range t.indexes {
		if len(ix.columns) == 1 && ix.columns[0] == colIdx && (best == nil || ix.name < best.name) {
			best = ix
		}
	}
	return best
}

// addIndex builds a new index over existing rows. It indexes the key of
// every version of every chain — not just the latest — because a reader
// pinned before the index existed may plan through it and must still find
// its older versions. Chains are visited in the scan order, which is rowid
// order, so every ref list comes out sorted and replicas holding the same
// chains draw the same skiplist towers. Uniqueness is checked once the
// index is built, against live (latest) rows only; a violation drops the
// index unpublished. Caller holds the engine lock exclusively, so no reader
// runs.
func (t *table) addIndex(name string, cols []int, unique bool) error {
	if _, dup := t.indexes[name]; dup {
		return errf("index %s already exists on %s", name, t.schema.Name)
	}
	ix := &index{name: name, columns: cols, unique: unique}
	if len(cols) == 1 {
		ix.ord = newOrdIndex()
	}
	slab := t.order.Load()
	chains := slab.entries[:slab.n.Load()]
	for _, ch := range chains {
		for v := ch.head.Load(); v != nil; v = v.prev.Load() {
			if v.row != nil {
				ix.addRef(t, t.key(0, ix, v.row), v.row, ch)
			}
		}
	}
	if unique {
		for _, ch := range chains {
			if row := ch.latestRow(); row != nil && ix.liveConflict(ch, t.key(0, ix, row)) {
				return errf("unique constraint violation on %s.%s", t.schema.Name, ix.name)
			}
		}
	}
	t.indexes[name] = ix
	return nil
}
