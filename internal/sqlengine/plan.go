package sqlengine

import (
	"slices"
	"strings"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// This file is the engine's access planner: the one place that decides how a
// statement reaches a table's rows. SELECT (single-table and join base
// table), UPDATE and DELETE all plan through it, so index exploitation is
// uniform across the read and write paths.
//
// The binding (bind.go) records the top-level AND conjuncts of a WHERE
// clause an index can answer, each with its column's index; per execution
// the planner reads their operands — `col = literal` and `col IN (literals)`
// probe the hash buckets, `col </<=/>/>= literal` / `col BETWEEN a AND b`
// the ordered skiplist view — and picks the most selective one. Planning is candidate narrowing only: the full WHERE clause is still
// evaluated against every candidate row, so a plan is correct as long as its
// candidate set is a superset of the true match set.
//
// planOrder additionally decides whether a single-table ORDER BY can be
// satisfied by scanning an ordered index in key order instead of sorting —
// the top-k path that makes ORDER BY col LIMIT n cost O(result), not
// O(table).

// accessPlan describes how to enumerate one table's rows.
type accessPlan struct {
	refs    []*rowChain // candidate chains, ascending by rowid; meaningful when indexed
	indexed bool        // false means full scan
}

// keyCompatible reports whether an index probe with lit can find every
// stored value of a column of type ct that compares equal to lit. Stored
// values are coerced to the column type on insert, so their hash keys are in
// the column type's key class; a literal from another class (e.g. the string
// '5' against an INTEGER column) can compare equal through sqlval's textual
// fallback while hashing differently, and must fall back to a scan. The
// same guard protects ordered-range probes: sqlval.Compare is only a total
// order within one class, so a cross-class bound could fence off rows it
// actually matches.
func keyCompatible(ct sqlval.Kind, lit sqlval.Value) bool {
	switch ct {
	case sqlval.KindInt, sqlval.KindFloat, sqlval.KindBool:
		return lit.K == sqlval.KindInt || lit.K == sqlval.KindFloat || lit.K == sqlval.KindBool
	default:
		// Strings, times and blobs only probe with their own kind: the
		// textual Compare fallback can equate values across classes.
		return lit.K == ct
	}
}

// colRange accumulates the intersection of a column's top-level range
// conjuncts: lo/hi are the tightest bounds seen (nil = unbounded), ix the
// column's index.
type colRange struct {
	col    int
	ix     *index
	lo, hi *rangeBound
}

// tightenLo narrows the lower bound to b if b is tighter.
func (r *colRange) tightenLo(b rangeBound) {
	if r.lo == nil {
		r.lo = &b
		return
	}
	c := sqlval.Compare(b.v, r.lo.v)
	if c > 0 || (c == 0 && !b.incl && r.lo.incl) {
		r.lo = &b
	}
}

// tightenHi narrows the upper bound to b if b is tighter.
func (r *colRange) tightenHi(b rangeBound) {
	if r.hi == nil {
		r.hi = &b
		return
	}
	c := sqlval.Compare(b.v, r.hi.v)
	if c < 0 || (c == 0 && !b.incl && r.hi.incl) {
		r.hi = &b
	}
}

// extractRanges collects the per-column range bounds the conjuncts imply:
// </<=/>/>= comparisons and BETWEEN whose operands params reads. Each bound
// passes the keyCompatible guard. Shared by candidate narrowing
// (planAccess) and bounded ordered scans (planOrder).
func extractRanges(t *table, conj []conjunct, params []sqlval.Value) []colRange {
	var ranges []colRange
	rangeOf := func(c *conjunct) *colRange {
		for i := range ranges {
			if ranges[i].col == c.col {
				return &ranges[i]
			}
		}
		ranges = append(ranges, colRange{col: c.col, ix: c.ix})
		return &ranges[len(ranges)-1]
	}
	for i := range conj {
		c := &conj[i]
		ct := t.schema.Columns[c.col].Type
		switch n := c.n; {
		case n.op == opCmpConst && n.cmp != cmpEqual: // <, <=, > or >=
			lit, ok := n.r.x.LitValue(params)
			if !ok || !keyCompatible(ct, lit) {
				continue
			}
			b := rangeBound{v: lit, incl: n.cmp&cmpEqual != 0}
			if n.cmp&cmpLess != 0 {
				rangeOf(c).tightenHi(b)
			} else {
				rangeOf(c).tightenLo(b)
			}
		case n.op == opBetween:
			lo, okLo := n.args[0].x.LitValue(params)
			hi, okHi := n.args[1].x.LitValue(params)
			if !okLo || !okHi || !keyCompatible(ct, lo) || !keyCompatible(ct, hi) {
				continue
			}
			r := rangeOf(c)
			r.tightenLo(rangeBound{v: lo, incl: true})
			r.tightenHi(rangeBound{v: hi, incl: true})
		}
	}
	return ranges
}

// planAccess chooses an index-backed access path for t from the bound
// conjuncts of its WHERE clause, or a full scan when none is usable:
// hash-point probes for = and IN, ordered-range collection for
// </<=/>/>=/BETWEEN, most selective (fewest candidates) wins. The returned
// candidate list is sorted by rowid, so iterating it is deterministic
// (rowids are assigned in insertion order). A point probe's list is the
// index bucket's own slice (index.lookup), returned as is when already in
// order; otherwise the planner sorts and dedups a copy, never the bucket.
// Either way iterating it is safe while writers keep appending refs.
// Candidates may be stale — a ref stays while any version on its chain
// holds the key, not only the version the reader sees — which is fine:
// every caller resolves each chain through its read view and re-evaluates
// the full WHERE clause. params is the statement's parameter
// vector, which a placeholder operand probes with exactly as a literal
// would.
func planAccess(e *Engine, t *table, conj []conjunct, params []sqlval.Value) accessPlan {
	if len(conj) == 0 || e.noIndexPlan.Load() {
		return accessPlan{}
	}
	var best []*rowChain
	found := false
	consider := func(refs []*rowChain) {
		if found && len(refs) >= len(best) {
			return
		}
		best, found = refs, true
	}
	for i := range conj {
		c := &conj[i]
		if c.ix == nil {
			continue
		}
		ct := t.schema.Columns[c.col].Type
		switch n := c.n; {
		case n.op == opCmpConst && n.cmp == cmpEqual:
			if lit, ok := n.r.x.LitValue(params); ok && keyCompatible(ct, lit) {
				consider(c.ix.lookup(t, lit))
			}
		case n.op == opIn:
			usable := true
			for _, item := range n.args {
				if v, ok := item.x.LitValue(params); !ok || !keyCompatible(ct, v) {
					usable = false
					break
				}
			}
			if !usable {
				continue
			}
			var union []*rowChain
			for _, item := range n.args {
				v, _ := item.x.LitValue(params)
				union = append(union, c.ix.lookup(t, v)...)
			}
			consider(union)
		}
	}
	// Ordered-range candidates: for every column with accumulated bounds and
	// an ordered index, collect the refs inside the range — aborting as soon
	// as the collection exceeds the best point probe, so a wide range never
	// costs more than the path it loses to.
	for _, r := range extractRanges(t, conj, params) {
		if r.ix == nil {
			continue
		}
		limit := -1
		if found {
			limit = len(best)
		}
		if refs, ok := r.ix.ord.collectRange(t, r.lo, r.hi, limit); ok {
			consider(refs)
		}
	}
	if !found {
		return accessPlan{}
	}
	// Distinct IN-list values cannot share rowids, but values that hash to
	// the same key (1 and 1.0) duplicate their lists, and stale refs can
	// repeat a rowid across buckets or skiplist nodes; drop adjacent dups.
	// rowidOrder copies any list that is not strictly ascending, so the
	// dedup only ever writes to a copy, never to an index bucket.
	best = slices.Compact(rowidOrder(best))
	return accessPlan{refs: best, indexed: true}
}

// orderPlan describes how a single-table SELECT satisfies its ORDER BY.
type orderPlan struct {
	// done: the row stream needs no sort — either every ORDER BY key is
	// pinned to a constant by an = conjunct (any access path emits rows in
	// rowid order, which equals the stable sort's tie order), or scan below
	// is set.
	done bool
	// scan: enumerate rows through the ordered index in key order instead
	// of planAccess, bounded by lo/hi when range conjuncts constrain the
	// sort column.
	scan   bool
	ix     *ordIndex
	col    int // table-local column position of the sort key
	desc   bool
	lo, hi *rangeBound
}

// planOrder decides whether the ORDER BY of a single-table, non-grouped,
// non-DISTINCT SELECT is satisfiable without sorting. Keys whose columns are
// pinned by a top-level `col = literal` conjunct are dropped first (a
// constant column is sorted in any order); if nothing remains the order is
// trivially done, and if exactly one bare column with an ordered index
// remains the sort becomes a direction-aware index scan.
func planOrder(e *Engine, t *table, b *binding, sel *sqlparser.Select, params []sqlval.Value) orderPlan {
	if len(sel.OrderBy) == 0 {
		return orderPlan{done: true}
	}
	if e.noIndexPlan.Load() || !orderShapeElidable(sel.OrderBy, sel.Items, params) {
		return orderPlan{}
	}
	// Columns pinned to a constant by an = conjunct. No keyCompatible guard
	// needed here: whatever the literal's class, at most one stored value of
	// the column compares equal to it, so every surviving row carries the
	// same key value.
	pinned := func(ci int) bool {
		for i := range b.conj {
			if c := &b.conj[i]; c.n.op == opCmpConst && c.n.cmp == cmpEqual && c.col == ci {
				if _, ok := c.n.r.x.LitValue(params); ok {
					return true
				}
			}
		}
		return false
	}
	keyCol, keyDesc, nKeys := -1, false, 0
	for i, oi := range sel.OrderBy {
		ex := b.order[i].expr
		if v, ok := oi.Expr.LitValue(params); ok && v.K == sqlval.KindInt {
			pos := int(v.I) - 1
			if pos < 0 || pos >= len(sel.Items) || sel.Items[pos].Star {
				return orderPlan{}
			}
			ex = b.items[pos]
		}
		if ex == nil || ex.op != opColumn {
			return orderPlan{}
		}
		ci := int(ex.slot)
		if pinned(ci) {
			continue // constant column: satisfied by any order
		}
		nKeys++
		if nKeys > 1 {
			if ci != keyCol || oi.Desc != keyDesc {
				return orderPlan{}
			}
			nKeys-- // duplicate of the surviving key
			continue
		}
		keyCol, keyDesc = ci, oi.Desc
	}
	if nKeys == 0 {
		return orderPlan{done: true}
	}
	ix := t.indexOn(keyCol)
	if ix == nil {
		return orderPlan{}
	}
	op := orderPlan{done: true, scan: true, ix: ix.ord, col: keyCol, desc: keyDesc}
	for _, r := range extractRanges(t, b.conj, params) {
		if r.col == keyCol {
			op.lo, op.hi = r.lo, r.hi
		}
	}
	return op
}

// orderShapeElidable checks the preconditions for satisfying an ORDER BY
// by index scan: every key is a bare/qualified column or an integer
// position (a literal, or a parameter params binds) resolving to one, and
// no select-list alias captures a bare key's name for a different
// expression (orderKeys would sort by that output column, so eliding the
// sort would diverge).
func orderShapeElidable(orderBy []sqlparser.OrderItem, items []sqlparser.SelectItem, params []sqlval.Value) bool {
	for _, oi := range orderBy {
		ex := oi.Expr
		if v, ok := ex.LitValue(params); ok && v.K == sqlval.KindInt {
			pos := int(v.I) - 1
			if pos < 0 || pos >= len(items) {
				return false
			}
			// A star at or before the position expands to an unknown number
			// of output columns, so the positional reference cannot be
			// resolved against the select list here; orderKeys resolves it
			// against the post-expansion output instead.
			for _, it := range items[:pos+1] {
				if it.Star {
					return false
				}
			}
			ex = items[pos].Expr
		}
		if ex == nil || ex.Kind != sqlparser.ExprColumn {
			return false
		}
		if ex.Table != "" {
			continue
		}
		for _, it := range items {
			if it.Star {
				continue // star output names are the columns themselves
			}
			name := strings.ToLower(it.Alias)
			if name == "" && it.Expr != nil && it.Expr.Kind == sqlparser.ExprColumn {
				name = it.Expr.Column
			}
			if name != ex.Column {
				continue
			}
			if it.Expr == nil || it.Expr.Kind != sqlparser.ExprColumn || it.Expr.Column != ex.Column {
				return false
			}
		}
	}
	return true
}

// candidateRefs returns the row chains a WHERE clause can possibly match:
// the planner's candidate list when an index applies (hash point, IN union
// or ordered range), the full scan order otherwise. UPDATE and DELETE
// iterate it while mutating the table. That is safe although a planned list
// may be an index bucket's own slice: it is capped at its length and no
// entry below the cap is ever rewritten (the planner copies before it
// sorts), so the refs updateRow appends land beyond it. A full scan
// returns the order slab's own published prefix, capped the same way: the
// prefix is immutable, and neither UPDATE nor DELETE appends to the slab.
// Caller holds the table latch exclusively and resolves liveness per chain
// (writer view).
func candidateRefs(e *Engine, t *table, conj []conjunct, params []sqlval.Value) []*rowChain {
	if plan := planAccess(e, t, conj, params); plan.indexed {
		return plan.refs
	}
	slab := t.order.Load()
	n := int(slab.n.Load())
	return slab.entries[:n:n]
}
