package sqlengine

import (
	"sync/atomic"

	"cjdbc/internal/sqlval"
)

// This file is the ordered half of the engine's secondary indexes: a
// skiplist keyed by sqlval collation order (sqlval.Compare, NULL-first) that
// coexists with MVCC under the same discipline as the hash buckets. Each node
// is one key and owns that key's chain-ref list, which the index's hash map
// shares (index.addRef). A ref stays while a version on its chain holds the
// node's key, so a reader pinned at an older epoch still finds old versions
// through the key they had then; the purge that cuts the last such version
// drops the ref, and unlinks the node it empties (ordIndex.remove). Every
// access path re-filters candidates through its full predicate at the
// pinned epoch. The tower links are atomics published bottom-up, so
// latch-free snapshot readers traverse a consistent list while the single
// writer (the table-latch holder) inserts and removes; the level-0 list is
// doubly linked so ORDER BY ... DESC scans walk backwards from the tail
// without materializing the table.
//
// Why refs to versions a reader does not see stay harmless, exactly as in
// the hash indexes: a node emits a row only when the row's current column
// value (resolved at the reader's pinned epoch) compares equal to the node
// key, so a row whose key changed is emitted once, at the node of the value
// the snapshot sees, and skipped everywhere else. Columns are coerced to
// their declared kind on insert, so within one column sqlval.Compare is a
// total order and "compares equal" means "is this node's key".

// maxSkipLevel bounds tower height; 2^16 expected keys per level-16 node is
// far beyond any in-memory table this engine serves.
const maxSkipLevel = 16

// skipNode is one distinct key of an ordered index. key and the tower size
// are immutable after publication; the embedded bucket is the key's ref
// list, the same one the index's hash map holds for the key; next/prev are
// traversed latch-free. A node of level 1 or 2 — three in four — keeps its
// tower in low, and next points into it: with the first ref inline too, a
// key held by one row is this one object.
type skipNode struct {
	key sqlval.Value
	idBucket
	prev atomic.Pointer[skipNode]   // level-0 backward link; nil at the first node
	next []atomic.Pointer[skipNode] // tower; len(next) == the node's level
	low  [2]atomic.Pointer[skipNode]
}

// ordIndex is the ordered view of one single-column index. The head sentinel
// carries a full-height tower; tail tracks the largest key for DESC scans.
// rnd is the level generator's xorshift state, touched only by writers, who
// already hold the table latch exclusively.
type ordIndex struct {
	head *skipNode
	tail atomic.Pointer[skipNode]
	rnd  uint64
}

func newOrdIndex() *ordIndex {
	return &ordIndex{
		head: &skipNode{next: make([]atomic.Pointer[skipNode], maxSkipLevel)},
		rnd:  0x9E3779B97F4A7C15,
	}
}

// randLevel draws a geometric(1/2) tower height from the writer-only
// xorshift state. Deterministic per insertion sequence, so replicas applying
// the same write stream build identical structures.
func (ox *ordIndex) randLevel() int {
	x := ox.rnd
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ox.rnd = x
	lvl := 1
	for x&1 == 1 && lvl < maxSkipLevel {
		lvl++
		x >>= 1
	}
	return lvl
}

// findPreds fills preds[i] with the rightmost node at level i whose key is
// strictly below v and returns the level-0 successor (the first node with
// key >= v, or nil). Writer-side search; readers use seekGE/seekLE.
func (ox *ordIndex) findPreds(v sqlval.Value, preds *[maxSkipLevel]*skipNode) *skipNode {
	n := ox.head
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for {
			nx := n.next[i].Load()
			if nx == nil || sqlval.Compare(nx.key, v) >= 0 {
				break
			}
			n = nx
		}
		preds[i] = n
	}
	return n.next[0].Load()
}

// insert records ch under key v, creating the node if the key is new, and
// returns the node's bucket. Caller holds the table latch exclusively.
// Publication order is the
// correctness argument for latch-free readers: the new node's entire tower,
// prev link and ref list are in place before the first predecessor pointer
// stores it, and the commit epoch that makes the row visible publishes only
// after insert returns — so any reader whose pinned epoch can see the row
// observes the node fully linked, and a reader racing ahead of the links
// merely misses rows its epoch filters out anyway.
func (ox *ordIndex) insert(t *table, v sqlval.Value, ch *rowChain) *idBucket {
	var preds [maxSkipLevel]*skipNode
	succ := ox.findPreds(v, &preds)
	if succ != nil && sqlval.Compare(succ.key, v) == 0 {
		succ.add(t, ch)
		return &succ.idBucket
	}
	lvl := ox.randLevel()
	node := &skipNode{key: v}
	node.init(ch)
	if lvl <= len(node.low) {
		node.next = node.low[:lvl]
	} else {
		node.next = make([]atomic.Pointer[skipNode], lvl)
	}
	for i := 0; i < lvl; i++ {
		node.next[i].Store(preds[i].next[i].Load())
	}
	if preds[0] != ox.head {
		node.prev.Store(preds[0])
	}
	// Publish bottom-up: a node reachable at any level already has its full
	// tower set, so a reader descending into it continues correctly.
	for i := 0; i < lvl; i++ {
		preds[i].next[i].Store(node)
	}
	if succ != nil {
		succ.prev.Store(node)
	} else {
		ox.tail.Store(node)
	}
	return &node.idBucket
}

// remove unlinks the node keyed v, whose ref list has emptied. Caller holds
// the table latch exclusively, so no insert races. In-flight latch-free
// readers are safe because the unlinked node keeps its own next and prev
// links: a reader standing on it walks onward to the nodes that were its
// neighbours, and from them to every node still linked. Such a reader misses
// only nodes linked after its pin, and those hold no version it can see: a
// key its snapshot sees is held by a version no purge can cut yet, so that
// key's node stays linked throughout.
func (ox *ordIndex) remove(v sqlval.Value) {
	var preds [maxSkipLevel]*skipNode
	n := ox.findPreds(v, &preds)
	if n == nil || sqlval.Compare(n.key, v) != 0 {
		return
	}
	for i := len(n.next) - 1; i >= 0; i-- {
		preds[i].next[i].Store(n.next[i].Load())
	}
	if succ := n.next[0].Load(); succ != nil {
		succ.prev.Store(n.prev.Load())
	} else {
		ox.tail.Store(n.prev.Load())
	}
}

// rangeBound is one end of a key range; a nil *rangeBound is unbounded.
type rangeBound struct {
	v    sqlval.Value
	incl bool
}

// seekGE returns the first node satisfying the lower bound (key >= b.v, or
// > b.v when exclusive), or the first node overall when b is nil.
func (ox *ordIndex) seekGE(b *rangeBound) *skipNode {
	if b == nil {
		return ox.head.next[0].Load()
	}
	n := ox.head
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for {
			nx := n.next[i].Load()
			if nx == nil {
				break
			}
			c := sqlval.Compare(nx.key, b.v)
			if c < 0 || (c == 0 && !b.incl) {
				n = nx
				continue
			}
			break
		}
	}
	return n.next[0].Load()
}

// seekLE returns the last node satisfying the upper bound (key <= b.v, or
// < b.v when exclusive), the tail when b is nil, or nil when no node
// qualifies. DESC scans start here and walk prev links.
func (ox *ordIndex) seekLE(b *rangeBound) *skipNode {
	if b == nil {
		return ox.tail.Load()
	}
	n := ox.head
	for i := maxSkipLevel - 1; i >= 0; i-- {
		for {
			nx := n.next[i].Load()
			if nx == nil {
				break
			}
			c := sqlval.Compare(nx.key, b.v)
			if c < 0 || (c == 0 && b.incl) {
				n = nx
				continue
			}
			break
		}
	}
	if n == ox.head {
		return nil
	}
	return n
}

// sortedRefs returns the node's refs ascending by rowid. Rowids are assigned
// in insertion order, so equal-key rows emit in the same tie order a stable
// sort over the scan order produces — the property the planned==full-scan
// byte-identity proof rests on. The node's own slice is copied only when
// out of order.
func (n *skipNode) sortedRefs(t *table) []*rowChain {
	return rowidOrder(n.live(t))
}

// ascend calls f on every node within [lo, hi] in key order until f
// returns false.
func (ox *ordIndex) ascend(lo, hi *rangeBound, f func(n *skipNode) bool) {
	for n := ox.seekGE(lo); n != nil; n = n.next[0].Load() {
		if hi != nil {
			c := sqlval.Compare(n.key, hi.v)
			if c > 0 || (c == 0 && !hi.incl) {
				return
			}
		}
		if !f(n) {
			return
		}
	}
}

// scan walks nodes in key order (descending when desc) within [lo, hi],
// calling f once per node with its refs sorted by rowid (f must not reorder
// them: see sortedRefs); f returns false to stop early (LIMIT budgets).
// Latch-free: bounds are checked against immutable node keys and links are
// atomic loads.
func (ox *ordIndex) scan(t *table, lo, hi *rangeBound, desc bool, f func(key sqlval.Value, refs []*rowChain) bool) {
	if desc {
		for n := ox.seekLE(hi); n != nil; n = n.prev.Load() {
			if lo != nil {
				c := sqlval.Compare(n.key, lo.v)
				if c < 0 || (c == 0 && !lo.incl) {
					return
				}
			}
			if !f(n.key, n.sortedRefs(t)) {
				return
			}
		}
		return
	}
	ox.ascend(lo, hi, func(n *skipNode) bool { return f(n.key, n.sortedRefs(t)) })
}

// collectRange gathers the refs of every node in [lo, hi] for the access
// planner's candidate-narrowing mode, aborting with ok=false once more than
// limit refs are in range (the planner already holds a better path, so there
// is no point materializing a wider one). limit < 0 means unbounded. It
// counts before it copies, so the list is allocated once at its size and an
// aborted range allocates nothing; a ref a writer adds between the two walks
// only grows the list. Node lists are concatenated as they are: the planner
// puts the whole list in rowid order.
func (ox *ordIndex) collectRange(t *table, lo, hi *rangeBound, limit int) ([]*rowChain, bool) {
	n := 0
	ox.ascend(lo, hi, func(nd *skipNode) bool {
		n += len(nd.live(t))
		return limit < 0 || n <= limit
	})
	if limit >= 0 && n > limit {
		return nil, false
	}
	out := make([]*rowChain, 0, n)
	ox.ascend(lo, hi, func(nd *skipNode) bool {
		out = append(out, nd.live(t)...)
		return true
	})
	return out, true
}
