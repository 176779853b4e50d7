package sqlengine

import (
	"slices"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// This file is the engine's access planner: the one place that decides how a
// statement reaches a table's rows. SELECT (single-table and join base
// table), UPDATE and DELETE all plan through it, so index exploitation is
// uniform across the read and write paths.
//
// The planner inspects the top-level AND conjuncts of a WHERE clause for
// predicates an index can answer — `col = literal` and `col IN (literals)`
// through the hash buckets, and `col </<=/>/>= literal` / `col BETWEEN a AND
// b` / `=` through the ordered skiplist view — and picks the most selective
// one. Planning is candidate narrowing only: the full WHERE clause is still
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

// colResolver maps a column expression to its position in a table's schema,
// or ok=false when the expression refers to some other table of the query.
type colResolver func(e *sqlparser.Expr) (int, bool)

// envResolver resolves columns exactly as the evaluation environment will:
// through the env column map, accepting only positions inside the table's
// slot [offset, offset+width). Using the same map as eval guarantees a
// pushed-down conjunct binds to the same column the WHERE filter sees.
func envResolver(cols map[string]int, offset, width int) colResolver {
	return func(e *sqlparser.Expr) (int, bool) {
		pos, ok := colPos(cols, e)
		if !ok || pos < offset || pos >= offset+width {
			return 0, false
		}
		return pos - offset, true
	}
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
// conjuncts: lo/hi are the tightest bounds seen (nil = unbounded).
type colRange struct {
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

// walkConjuncts calls f for every top-level AND conjunct of where.
func walkConjuncts(where *sqlparser.Expr, f func(ex *sqlparser.Expr)) {
	if where == nil {
		return
	}
	if where.Kind == sqlparser.ExprBinary && where.Op == "AND" {
		walkConjuncts(where.Left, f)
		walkConjuncts(where.Right, f)
		return
	}
	f(where)
}

// colLit decomposes a binary comparison into (column, operand value),
// flipping the operator when the operand is on the left (5 < v means v > 5).
// The operand is a literal or a parameter params binds.
func colLit(ex *sqlparser.Expr, params []sqlval.Value) (col *sqlparser.Expr, lit sqlval.Value, op string, ok bool) {
	op = ex.Op
	col, operand := ex.Left, ex.Right
	if col.Kind != sqlparser.ExprColumn {
		col, operand = operand, col
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	if col.Kind != sqlparser.ExprColumn {
		return nil, sqlval.Null, "", false
	}
	if lit, ok = operand.LitValue(params); !ok {
		return nil, sqlval.Null, "", false
	}
	return col, lit, op, true
}

// extractRanges collects the per-column range bounds the top-level AND
// conjuncts imply: </<=/>/>= comparisons against literals (or parameters
// params binds) and BETWEEN. Each bound passes the keyCompatible guard.
// Shared by candidate narrowing (planAccess) and bounded ordered scans
// (planOrder).
func extractRanges(t *table, resolve colResolver, where *sqlparser.Expr, params []sqlval.Value) map[int]*colRange {
	var ranges map[int]*colRange
	rangeOf := func(ci int) *colRange {
		if ranges == nil {
			ranges = make(map[int]*colRange)
		}
		r := ranges[ci]
		if r == nil {
			r = &colRange{}
			ranges[ci] = r
		}
		return r
	}
	walkConjuncts(where, func(ex *sqlparser.Expr) {
		switch {
		case ex.Kind == sqlparser.ExprBinary && (ex.Op == "<" || ex.Op == "<=" || ex.Op == ">" || ex.Op == ">="):
			col, lit, op, ok := colLit(ex, params)
			if !ok {
				return
			}
			ci, ok := resolve(col)
			if !ok || !keyCompatible(t.schema.Columns[ci].Type, lit) {
				return
			}
			switch op {
			case "<":
				rangeOf(ci).tightenHi(rangeBound{v: lit, incl: false})
			case "<=":
				rangeOf(ci).tightenHi(rangeBound{v: lit, incl: true})
			case ">":
				rangeOf(ci).tightenLo(rangeBound{v: lit, incl: false})
			case ">=":
				rangeOf(ci).tightenLo(rangeBound{v: lit, incl: true})
			}
		case ex.Kind == sqlparser.ExprBetween && !ex.Not:
			if ex.Left == nil || ex.Left.Kind != sqlparser.ExprColumn || ex.Low == nil || ex.High == nil {
				return
			}
			lo, okLo := ex.Low.LitValue(params)
			hi, okHi := ex.High.LitValue(params)
			if !okLo || !okHi {
				return
			}
			ci, ok := resolve(ex.Left)
			if !ok {
				return
			}
			ct := t.schema.Columns[ci].Type
			if !keyCompatible(ct, lo) || !keyCompatible(ct, hi) {
				return
			}
			rangeOf(ci).tightenLo(rangeBound{v: lo, incl: true})
			rangeOf(ci).tightenHi(rangeBound{v: hi, incl: true})
		}
	})
	return ranges
}

// planAccess chooses an index-backed access path for t under the given WHERE
// clause, or a full scan when no top-level conjunct is indexable: hash-point
// probes for = and IN, ordered-range collection for </<=/>/>=/BETWEEN, most
// selective (fewest candidates) wins. The returned candidate list is sorted
// by rowid, so iterating it is deterministic (rowids are assigned in
// insertion order). A point probe's list is the index bucket's own
// insert-only slice (table.lookup), returned as is when already in order;
// otherwise the planner sorts and dedups a copy, never the bucket. Either
// way iterating it is safe while writers keep appending refs.
// Candidates may be stale — index entries are insert-only — which is fine:
// every caller resolves each chain through its read view and re-evaluates
// the full WHERE clause. access, when non-nil, is the plan cache's
// precomputed shape summary; a statement it marks non-indexable skips the
// conjunct walk entirely. params is the statement's parameter vector, which
// a placeholder operand probes with exactly as a literal would.
func planAccess(e *Engine, t *table, resolve colResolver, where *sqlparser.Expr, access *sqlparser.AccessInfo, params []sqlval.Value) accessPlan {
	if where == nil || e.noIndexPlan.Load() {
		return accessPlan{}
	}
	if access != nil && !access.Indexable {
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
	walkConjuncts(where, func(ex *sqlparser.Expr) {
		switch {
		case ex.Kind == sqlparser.ExprBinary && ex.Op == "=":
			col, lit, _, ok := colLit(ex, params)
			if !ok {
				return
			}
			ci, ok := resolve(col)
			if !ok || !keyCompatible(t.schema.Columns[ci].Type, lit) {
				return
			}
			if refs, indexed := t.lookup(ci, lit); indexed {
				consider(refs)
			}
		case ex.Kind == sqlparser.ExprIn && !ex.Not:
			if ex.Left == nil || ex.Left.Kind != sqlparser.ExprColumn {
				return
			}
			ci, ok := resolve(ex.Left)
			if !ok {
				return
			}
			ct := t.schema.Columns[ci].Type
			for _, item := range ex.List {
				if v, ok := item.LitValue(params); !ok || !keyCompatible(ct, v) {
					return
				}
			}
			var union []*rowChain
			for _, item := range ex.List {
				v, _ := item.LitValue(params)
				refs, indexed := t.lookup(ci, v)
				if !indexed {
					return
				}
				union = append(union, refs...)
			}
			consider(union)
		}
	})
	// Ordered-range candidates: for every column with accumulated bounds and
	// an ordered index, collect the refs inside the range — aborting as soon
	// as the collection exceeds the best point probe, so a wide range never
	// costs more than the path it loses to.
	for ci, r := range extractRanges(t, resolve, where, params) {
		ox := t.orderedOn(ci)
		if ox == nil {
			continue
		}
		limit := -1
		if found {
			limit = len(best)
		}
		if refs, ok := ox.collectRange(t, r.lo, r.hi, limit); ok {
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
// remains the sort becomes a direction-aware index scan. access, when
// non-nil, lets statements the plan cache marked non-elidable skip the
// analysis.
func planOrder(e *Engine, t *table, resolve colResolver, sel *sqlparser.Select, access *sqlparser.AccessInfo, params []sqlval.Value) orderPlan {
	if len(sel.OrderBy) == 0 {
		return orderPlan{done: true}
	}
	if e.noIndexPlan.Load() {
		return orderPlan{}
	}
	if access != nil && !access.OrderElidable {
		return orderPlan{}
	}
	if !sqlparser.AnalyzeAccess(nil, sel.OrderBy, sel.Items).OrderElidable {
		return orderPlan{}
	}
	// Columns pinned to a constant by an = conjunct. No keyCompatible guard
	// needed here: whatever the literal's class, at most one stored value of
	// the column compares equal to it, so every surviving row carries the
	// same key value.
	var eqCols map[int]bool
	walkConjuncts(sel.Where, func(ex *sqlparser.Expr) {
		if ex.Kind != sqlparser.ExprBinary || ex.Op != "=" {
			return
		}
		col, _, _, ok := colLit(ex, params)
		if !ok {
			return
		}
		if ci, ok := resolve(col); ok {
			if eqCols == nil {
				eqCols = make(map[int]bool)
			}
			eqCols[ci] = true
		}
	})
	keyCol, keyDesc, nKeys := -1, false, 0
	for _, oi := range sel.OrderBy {
		ex := oi.Expr
		if v, ok := ex.LitValue(params); ok && v.K == sqlval.KindInt {
			pos := int(v.I) - 1
			if pos < 0 || pos >= len(sel.Items) || sel.Items[pos].Star {
				return orderPlan{}
			}
			ex = sel.Items[pos].Expr
		}
		if ex == nil || ex.Kind != sqlparser.ExprColumn {
			return orderPlan{}
		}
		ci, ok := resolve(ex)
		if !ok {
			return orderPlan{}
		}
		if eqCols[ci] {
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
	ox := t.orderedOn(keyCol)
	if ox == nil {
		return orderPlan{}
	}
	op := orderPlan{done: true, scan: true, ix: ox, col: keyCol, desc: keyDesc}
	if r := extractRanges(t, resolve, sel.Where, params)[keyCol]; r != nil {
		op.lo, op.hi = r.lo, r.hi
	}
	return op
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
func candidateRefs(e *Engine, t *table, cols map[string]int, where *sqlparser.Expr, access *sqlparser.AccessInfo, params []sqlval.Value) []*rowChain {
	if plan := planAccess(e, t, envResolver(cols, 0, len(t.schema.Columns)), where, access, params); plan.indexed {
		return plan.refs
	}
	slab := t.order.Load()
	n := int(slab.n.Load())
	return slab.entries[:n:n]
}
