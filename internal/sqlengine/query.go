package sqlengine

import (
	"fmt"
	"slices"
	"strings"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// outRow is one projected row with what it was projected from — the
// combined source row (a group's first row) and, for a grouped query, the
// group's aggregates — so ORDER BY can evaluate non-projected keys.
type outRow struct {
	vals []sqlval.Value
	row  []sqlval.Value
	aggs []sqlval.Value
}

// span is the range [lo, hi) of the combined row a star item copies.
type span struct{ lo, hi int }

func (s *Session) execSelect(sel *sqlparser.Select) (*Result, error) {
	// Reads take no lock-manager table locks and no storage latches: like
	// the consistent nonblocking reads of the paper's InnoDB backends, a
	// SELECT resolves every row against a snapshot epoch pinned at statement
	// (auto-commit) or transaction start, plus the session's own uncommitted
	// writes. Readers never block writers, never wait for writers, and never
	// participate in deadlock cycles. The only lock held is one shard of the
	// engine's catalog RW lock, shared — excluding DDL and DDL-undo replay,
	// which rewrite the catalog itself under the full exclusive lock.
	e := s.engine
	e.mu.RLock(s.shard)
	defer e.mu.RUnlock(s.shard)
	b, err := s.bindSelect(sel)
	if err != nil {
		return nil, err
	}
	if len(sel.From) == 0 {
		return s.selectNoFrom(sel, b)
	}
	rv := readView{stamp: s.stamp, ep: s.snapshotEpoch()}

	// The working lists — the WHERE survivors and the projected rows — grow
	// in the session's scratch and go back to it cleared, whichever way the
	// statement ends. A producer that replaces a list (a join stage builds
	// its own) or fails hands back another list or none, and the scratch it
	// was given is then simply dropped.
	rows, out := s.selRows[:0], s.selOut[:0]
	defer func() { s.selRows, s.selOut = truncated(rows), truncated(out) }()

	// Both row producers apply WHERE while they scan.
	var orderDone bool
	if len(b.srcs) == 1 {
		rows, orderDone, err = s.singleTableRows(sel, b, rv, rows)
	} else {
		rows, err = s.joinRows(sel, b, rv, rows)
	}
	if err != nil {
		return nil, err
	}
	if b.headerErr != nil {
		return nil, b.headerErr
	}

	if b.grouped {
		out, err = groupedRows(sel, b, rows, s.params, out)
	} else {
		out, err = projectRows(b, rows, s.params, out)
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT, ORDER BY and LIMIT narrow and reorder live, a view of out.
	live := out
	if sel.Distinct {
		// The key is built in a reused buffer and a new distinct row adds
		// it to the key set's arena, so no row allocates.
		var seen keySet
		var key []byte
		dedup := live[:0]
		for _, r := range live {
			key = appendRowKey(key[:0], r.vals)
			if _, added := seen.add(key); added {
				dedup = append(dedup, r)
			}
		}
		live = dedup
	}

	if len(sel.OrderBy) > 0 && !orderDone {
		if err := orderRows(sel, b, live, s.params); err != nil {
			return nil, err
		}
	}

	live, err = applyLimit(b, live, s.params)
	if err != nil {
		return nil, err
	}

	// Every row is a capped view of the slab projection wrote. When DISTINCT
	// or LIMIT kept fewer than half the projected rows, the survivors move
	// to a slab of their own, so a short result (which the result cache
	// weighs by its own rows) does not pin the rows it dropped. The header
	// is the binding's, shared read-only by every result.
	res := &Result{Columns: b.header, Rows: make([][]sqlval.Value, len(live))}
	if k := len(b.header); 2*len(live) < len(out) {
		slab := make([]sqlval.Value, len(live)*k)
		for i, r := range live {
			res.Rows[i] = slabRow(slab, i, k)
			copy(res.Rows[i], r.vals)
		}
	} else {
		for i, r := range live {
			res.Rows[i] = r.vals
		}
	}
	return res, nil
}

// selectNoFrom evaluates a FROM-less select (SELECT 1, SELECT NOW()).
func (s *Session) selectNoFrom(sel *sqlparser.Select, b *binding) (*Result, error) {
	ev := &env{params: s.params}
	row := make([]sqlval.Value, 0, len(sel.Items))
	for i, it := range sel.Items {
		if it.Star {
			return nil, errf("SELECT * requires FROM")
		}
		v, err := ev.eval(b.items[i])
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return &Result{Columns: b.header, Rows: [][]sqlval.Value{row}}, nil
}

// singleTableRows materializes a one-table FROM clause. Unlike the join
// path, rows are used as stored — no pad-to-width copy — because the engine
// never mutates a stored row in place (updates replace the whole slice).
// The access planner turns indexable WHERE conjuncts into rowid candidates,
// the WHERE clause is applied during the scan, and a LIMIT stops the scan as
// soon as enough rows matched whenever no later stage reorders, merges or
// dedups rows — including ORDER BY satisfied by an ordered-index scan, the
// top-k path: rows then stream out of the index in final order and the scan
// halts after LIMIT+OFFSET live-at-epoch matches. rows is an empty list
// whose storage the matches reuse. The returned flag reports that the row
// order already satisfies ORDER BY.
func (s *Session) singleTableRows(sel *sqlparser.Select, b *binding, rv readView, rows [][]sqlval.Value) ([][]sqlval.Value, bool, error) {
	src := b.srcs[0]
	t := src.t
	e := s.engine

	// Order plan: can the ORDER BY be satisfied without sorting? Grouping
	// and DISTINCT re-shuffle rows after the scan, so elision only applies
	// without them.
	var op orderPlan
	if !b.grouped && !sel.Distinct {
		op = planOrder(e, t, b, sel, s.params)
	} else if len(sel.OrderBy) == 0 {
		op = orderPlan{done: true}
	}

	budget := int64(-1)
	if op.done && !b.grouped && !sel.Distinct {
		budget = scanBudget(b, s.params)
	}
	if budget == 0 {
		return rows, op.done, nil
	}

	var evalErr error
	ev := &env{params: s.params}
	add := func(row []sqlval.Value) bool {
		if b.where != nil {
			ev.row = row
			m, err := ev.eval(b.where)
			if err != nil {
				evalErr = err
				return false
			}
			if !m.AsBool() {
				return true
			}
		}
		rows = append(rows, row)
		return budget < 0 || int64(len(rows)) < budget
	}

	// Path choice. With a LIMIT, the ordered scan is the top-k play: it
	// stops after offset+limit live matches without materializing or sorting
	// anything. Without one, the ordered scan must visit the whole range
	// anyway, so a narrowing index path (point probe on another column, say)
	// plus an in-memory sort usually touches far fewer rows — take the
	// narrowing when one exists and keep the ordered scan as the no-sort
	// fallback.
	var plan accessPlan
	if !op.scan || sel.Limit == nil {
		plan = planAccess(e, t, b.conj, s.params)
	}
	if op.scan && plan.indexed {
		op.scan = false
		op.done = false
	}

	if op.scan {
		// Ordered-index scan: nodes stream in key order (reversed for
		// DESC), each node's refs in ascending rowid order — exactly the
		// tie order a stable sort over the scan order produces. A row is
		// emitted only at the node whose key equals the value its snapshot
		// version carries, so rows whose key changed across versions appear
		// exactly once, in the right position.
		keyPos := src.offset + op.col
		op.ix.scan(t, op.lo, op.hi, op.desc, func(key sqlval.Value, refs []*rowChain) bool {
			for _, ch := range refs {
				row := rv.resolve(ch)
				if row == nil || sqlval.Compare(row[keyPos], key) != 0 {
					continue
				}
				if !add(row) {
					return false
				}
			}
			return evalErr == nil
		})
		return rows, true, evalErr
	}

	if plan.indexed {
		n := int64(len(plan.refs))
		if budget >= 0 {
			n = min(n, budget)
		}
		rows = grown(rows, int(n))
		for _, ch := range plan.refs {
			if row := rv.resolve(ch); row != nil {
				if !add(row) {
					break
				}
			}
		}
	} else {
		t.scanSnap(rv, add)
	}
	return rows, op.done, evalErr
}

// scanBudget is the LIMIT pushdown budget: offset+limit WHERE survivors
// suffice when no later stage reorders, merges or dedups rows (callers
// check that). It is -1 when there is no usable LIMIT.
func scanBudget(b *binding, params []sqlval.Value) int64 {
	if b.limit == nil {
		return -1
	}
	ev := &env{params: params}
	lv, err := ev.eval(b.limit)
	if err != nil {
		return -1
	}
	budget, err := lv.AsInt()
	if err != nil || budget < 0 {
		return -1
	}
	if b.offset != nil {
		if ov, err := ev.eval(b.offset); err == nil {
			if off, err := ov.AsInt(); err == nil && off > 0 {
				budget += off
			}
		}
	}
	return budget
}

// joinRows materializes the FROM clause with nested-loop joins, using a hash
// index for equi-joins when one is available. Rows grow left to right: the
// base table's rows are used as stored, and each later stage assembles every
// candidate pair in one full-width scratch row, evaluates ON there and clones
// only the survivors, at the width joined so far. Positions of tables not
// joined yet stay NULL in the scratch row, as in a padded row. The last stage
// applies WHERE before cloning and, when no later stage reorders, merges or
// dedups rows, stops after offset+limit survivors. rows is an empty list
// whose storage the base table's rows reuse; each later stage builds a list
// of its own.
func (s *Session) joinRows(sel *sqlparser.Select, b *binding, rv readView, rows [][]sqlval.Value) ([][]sqlval.Value, error) {
	// WHERE conjuncts on the base table narrow it through the access
	// planner; the full WHERE clause still filters at the last stage, so
	// this only prunes rows that could never survive it (valid for LEFT JOIN
	// too, since the base is the preserved side).
	base := b.srcs[0]
	if plan := planAccess(s.engine, base.t, b.conj, s.params); plan.indexed {
		rows = grown(rows, len(plan.refs))
		for _, ch := range plan.refs {
			if r := rv.resolve(ch); r != nil {
				rows = append(rows, r)
			}
		}
	} else {
		base.t.scanSnap(rv, func(r []sqlval.Value) bool {
			rows = append(rows, r)
			return true
		})
	}

	budget := int64(-1)
	if len(sel.OrderBy) == 0 && !b.grouped && !sel.Distinct {
		budget = scanBudget(b, s.params)
	}
	if budget == 0 {
		return nil, nil
	}
	scratch := make([]sqlval.Value, b.width)
	ev := &env{row: scratch, params: s.params}
	noIndex := s.engine.noIndexPlan.Load()
	for i := 1; i < len(b.srcs) && len(rows) > 0; i++ {
		src := b.srcs[i]
		stage := &b.joins[i-1]
		last := i == len(b.srcs)-1
		width := src.offset + len(src.t.schema.Columns)
		part := scratch[src.offset:width]
		var next [][]sqlval.Value
		var evalErr error
		matched, full := false, false

		// keep clones the scratch row if it survives WHERE (last stage only)
		// and reports whether the stage should go on.
		keep := func() bool {
			if last && b.where != nil {
				m, err := ev.eval(b.where)
				if err != nil {
					evalErr = err
					return false
				}
				if !m.AsBool() {
					return true
				}
			}
			next = append(next, slices.Clone(scratch[:width]))
			full = last && budget >= 0 && int64(len(next)) >= budget
			return !full
		}
		try := func(r []sqlval.Value) bool {
			copy(part, r)
			if stage.on != nil {
				m, err := ev.eval(stage.on)
				if err != nil {
					evalErr = err
					return false
				}
				if !m.AsBool() {
					return true
				}
			}
			matched = true
			return keep()
		}

		// An indexed equi-join (ON left.col = right.col with the new
		// table's column indexed) probes the index the binding chose.
		useIndex := stage.ix != nil && !noIndex
		for _, left := range rows {
			copy(scratch, left)
			matched = false
			// An index probe is only sound when the probe value's key class
			// matches the build column's: cross-class values (string '5'
			// against an INTEGER column) can compare equal through the
			// textual fallback while hashing differently, so they scan.
			// Probed refs run in rowid order, the order a scan meets them.
			if useIndex && keyCompatible(src.t.schema.Columns[stage.build].Type, scratch[stage.probe]) {
				for _, ch := range rowidOrder(stage.ix.lookup(src.t, scratch[stage.probe])) {
					if r := rv.resolve(ch); r != nil && !try(r) {
						break
					}
				}
			} else {
				src.t.scanSnap(rv, try)
			}
			if !matched && evalErr == nil && sel.From[i].Join == sqlparser.JoinLeft {
				// LEFT JOIN: keep the left row with NULLs on the right.
				clear(part)
				keep()
			}
			if evalErr != nil {
				return nil, evalErr
			}
			if full {
				break
			}
		}
		rows = next
	}
	return rows, nil
}

// slabRow is row i of a slab of k-value rows, capped at its own length so
// that appending to it cannot write into row i+1.
func slabRow(slab []sqlval.Value, i, k int) []sqlval.Value {
	return slab[i*k : (i+1)*k : (i+1)*k]
}

// projectRows evaluates the select list for each row of a non-grouped
// query, in one reused environment, into one slab of len(rows)·k values.
// out is an empty list whose storage the projected rows reuse.
func projectRows(b *binding, rows [][]sqlval.Value, params []sqlval.Value, out []outRow) ([]outRow, error) {
	k := len(b.header)
	slab := make([]sqlval.Value, len(rows)*k)
	out = grown(out, len(rows))[:len(rows)]
	ev := env{params: params}
	for i, r := range rows {
		ev.row = r
		vals := slabRow(slab, i, k)
		if err := projectOne(b, &ev, vals); err != nil {
			return nil, err
		}
		out[i] = outRow{vals: vals, row: r}
	}
	return out, nil
}

// groupedRows implements GROUP BY / aggregate evaluation. A first pass
// numbers each row's group in first-seen order through one key set whose
// key is built in a reused scratch buffer, so no group allocates its key.
// A second pass folds every row into its group's accumulators — one
// per aggregate, all groups' in one slab sized once the groups are known —
// and moves each group's first row to the front of rows (group g's first
// row is never before row g, so the move overwrites only rows already
// read). HAVING then evaluates once per group, and the groups it keeps
// project into one slab, all in one reused environment; out is an empty
// list whose storage they reuse.
func groupedRows(sel *sqlparser.Select, b *binding, rows [][]sqlval.Value, params []sqlval.Value, out []outRow) ([]outRow, error) {
	for _, ae := range b.aggs {
		if !countsRows(ae.x) && len(ae.args) != 1 {
			return nil, errf("%s expects one argument", ae.x.Func)
		}
	}
	na := len(b.aggs)
	ev := env{params: params}

	// Without GROUP BY every row is in group 0, and that one group exists
	// even over no rows (COUNT(*) of an empty table is 0).
	ngroups := 1
	var gids []int32 // row i is in group gids[i]
	if len(b.groupBy) > 0 {
		gids = make([]int32, len(rows))
		var groups keySet
		var key []byte
		for i, r := range rows {
			ev.row = r
			key = key[:0]
			for _, g := range b.groupBy {
				v, err := ev.eval(g)
				if err != nil {
					return nil, err
				}
				key = appendKeyPart(key, v)
			}
			gids[i], _ = groups.add(key)
		}
		ngroups = groups.len()
	}

	accs := make([]aggAcc, ngroups*na) // group g's accumulators are accs[g*na:(g+1)*na]
	firsts := rows[:0]                 // group g's first row is firsts[g]
	var scratch []byte                 // DISTINCT keys
	for i, r := range rows {
		g := 0
		if gids != nil {
			g = int(gids[i])
		}
		if g == len(firsts) {
			firsts = append(firsts, r)
		}
		ev.row = r
		for j, ae := range b.aggs {
			if err := accs[g*na+j].add(ae, &ev, &scratch); err != nil {
				return nil, err
			}
		}
	}
	// The implicit group over no rows has an all-NULL row, so a bare column
	// in the select list or HAVING reads NULL. It gets a list of its own:
	// firsts may write only where rows already did.
	if len(b.groupBy) == 0 && len(rows) == 0 {
		firsts = [][]sqlval.Value{make([]sqlval.Value, b.width)}
	}

	// The groups HAVING keeps move to the front, with their aggregates.
	vals := make([]sqlval.Value, ngroups*na)
	aggs := make([][]sqlval.Value, ngroups)
	kept := 0
	for g, first := range firsts {
		gv := vals[g*na : (g+1)*na : (g+1)*na]
		for j, ae := range b.aggs {
			v, err := accs[g*na+j].result(ae.x)
			if err != nil {
				return nil, err
			}
			gv[j] = v
		}
		if b.having != nil {
			ev.row, ev.aggs = first, gv
			m, err := ev.eval(b.having)
			if err != nil {
				return nil, err
			}
			if !m.AsBool() {
				continue
			}
		}
		firsts[kept], aggs[kept] = first, gv
		kept++
	}

	k := len(b.header)
	slab := make([]sqlval.Value, kept*k)
	out = grown(out, kept)[:kept]
	for g := range out {
		ev.row, ev.aggs = firsts[g], aggs[g]
		pv := slabRow(slab, g, k)
		if err := projectOne(b, &ev, pv); err != nil {
			return nil, err
		}
		out[g] = outRow{vals: pv, row: firsts[g], aggs: aggs[g]}
	}
	return out, nil
}

// countsRows reports whether an aggregate counts rows rather than values:
// COUNT(*) and COUNT().
func countsRows(ae *sqlparser.Expr) bool {
	return ae.Func == "COUNT" && (len(ae.Args) == 0 || len(ae.Args) == 1 && ae.Args[0].Kind == sqlparser.ExprStar)
}

// aggAcc is one aggregate's running state within one group. count is the
// number of non-NULL (for DISTINCT: distinct) inputs, or of rows for
// COUNT(*); SUM and AVG add into sum, and into the exact sumInt while every
// input is an integer; MIN and MAX keep the extreme input in ext.
type aggAcc struct {
	count  int64
	sum    float64
	sumInt int64
	mixed  bool // a non-integer was summed: SUM answers sum, not sumInt
	ext    sqlval.Value
	seen   *keySet // DISTINCT only: keys of the inputs counted
}

// add folds the current row of ev into the accumulator. scratch is a
// reusable buffer for DISTINCT keys.
func (a *aggAcc) add(ae *bexpr, ev *env, scratch *[]byte) error {
	if countsRows(ae.x) {
		a.count++
		return nil
	}
	v, err := ev.eval(ae.args[0])
	if err != nil || v.IsNull() {
		return err
	}
	if ae.x.Distinct {
		if a.seen == nil {
			a.seen = new(keySet)
		}
		*scratch = v.AppendKey((*scratch)[:0])
		if _, added := a.seen.add(*scratch); !added {
			return nil
		}
	}
	switch ae.x.Func {
	case "SUM", "AVG":
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		a.sum += f
		if v.K == sqlval.KindInt {
			a.sumInt += v.I
		} else {
			a.mixed = true
		}
	case "MIN":
		if a.count == 0 || sqlval.Compare(v, a.ext) < 0 {
			a.ext = v
		}
	case "MAX":
		if a.count == 0 || sqlval.Compare(v, a.ext) > 0 {
			a.ext = v
		}
	}
	a.count++
	return nil
}

// result is the aggregate's value over everything added.
func (a *aggAcc) result(ae *sqlparser.Expr) (sqlval.Value, error) {
	switch ae.Func {
	case "COUNT":
		return sqlval.Int(a.count), nil
	case "SUM":
		if a.count == 0 {
			return sqlval.Null, nil
		}
		if !a.mixed {
			return sqlval.Int(a.sumInt), nil
		}
		return sqlval.Float(a.sum), nil
	case "AVG":
		if a.count == 0 {
			return sqlval.Null, nil
		}
		return sqlval.Float(a.sum / float64(a.count)), nil
	case "MIN", "MAX":
		return a.ext, nil // NULL when nothing was added
	}
	return sqlval.Null, errf("unknown aggregate %s", ae.Func)
}

// projectOne evaluates the select list in ev into dst, which is exactly
// the list's output width. A star copies its span of the combined row.
func projectOne(b *binding, ev *env, dst []sqlval.Value) error {
	n := 0
	for i, it := range b.items {
		if it == nil {
			n += copy(dst[n:], ev.row[b.stars[i].lo:b.stars[i].hi])
			continue
		}
		v, err := ev.eval(it)
		if err != nil {
			return err
		}
		dst[n] = v
		n++
	}
	return nil
}

// starSpan resolves one star item. A bare * is the whole combined row. A
// qualified t.* is the one FROM entry whose exposed name — its alias, or
// its table name when it has none — is t: a contiguous range of the
// combined row.
func starSpan(it sqlparser.SelectItem, srcs []srcTable) (span, error) {
	if it.Table == "" {
		last := srcs[len(srcs)-1]
		return span{0, last.offset + len(last.t.schema.Columns)}, nil
	}
	want := strings.ToLower(it.Table)
	var sp span
	found := false
	for _, src := range srcs {
		if src.alias != want {
			continue
		}
		if found {
			return span{}, errf("table name %q is ambiguous in %s.*", it.Table, it.Table)
		}
		sp, found = span{src.offset, src.offset + len(src.t.schema.Columns)}, true
	}
	if !found {
		return span{}, errf("unknown table %q in %s.*", it.Table, it.Table)
	}
	return sp, nil
}

func itemName(it sqlparser.SelectItem, i int) string {
	if it.Alias != "" {
		return strings.ToLower(it.Alias)
	}
	if it.Expr != nil && it.Expr.Kind == sqlparser.ExprColumn {
		return it.Expr.Column
	}
	return fmt.Sprintf("column%d", i+1)
}

// orderKey is one ORDER BY key: output column pos, or when pos < 0 expr
// evaluated on the row's source. The binding holds each key's expression
// and, for a bare name, the output column it names (-1 for none).
type orderKey struct {
	pos  int
	expr *bexpr
}

// orderRows sorts out in place according to ORDER BY. Keys resolve first to
// output aliases, then to positional integers, then evaluate on the row's
// source row and aggregates, in one reused environment. Key extraction is
// hoisted out of the comparator (decorate-sort-undecorate): each row's keys
// are resolved exactly once — O(n·k) evaluations — into one slab, a stable
// sort orders an index over it, and the rows then follow the index in
// place. The sort allocates the keys, the slab and the index.
func orderRows(sel *sqlparser.Select, b *binding, out []outRow, params []sqlval.Value) error {
	keys := make([]orderKey, len(sel.OrderBy))
	for i, oi := range sel.OrderBy {
		keys[i] = b.order[i]
		if lit, ok := oi.Expr.LitValue(params); ok {
			keys[i].pos = -1
			if lit.K == sqlval.KindInt {
				pos := int(lit.I) - 1
				if pos < 0 || pos >= len(b.header) {
					return errf("ORDER BY position %d out of range", lit.I)
				}
				keys[i].pos = pos
			}
		}
	}
	nk := len(keys)
	dec := make([]sqlval.Value, len(out)*nk)
	ev := env{params: params}
	for r := range out {
		for i, k := range keys {
			if k.pos >= 0 {
				dec[r*nk+i] = out[r].vals[k.pos]
				continue
			}
			ev.row, ev.aggs = out[r].row, out[r].aggs
			v, err := ev.eval(k.expr)
			if err != nil {
				return err
			}
			dec[r*nk+i] = v
		}
	}
	idx := make([]int, len(out))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ka, kb := dec[a*nk:(a+1)*nk], dec[b*nk:(b+1)*nk]
		for i := range ka {
			if c := sqlval.Compare(ka[i], kb[i]); c != 0 {
				if sel.OrderBy[i].Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	// Row j takes the row at idx[j]: follow each cycle of the permutation
	// once, marking settled positions in idx.
	for i := range idx {
		if idx[i] == i {
			continue
		}
		first, j := out[i], i
		for idx[j] != i {
			next := idx[j]
			out[j], idx[j] = out[next], j
			j = next
		}
		out[j], idx[j] = first, j
	}
	return nil
}

// applyLimit applies LIMIT/OFFSET.
func applyLimit(b *binding, out []outRow, params []sqlval.Value) ([]outRow, error) {
	if b.limit == nil {
		return out, nil
	}
	ev := &env{params: params}
	lv, err := ev.eval(b.limit)
	if err != nil {
		return nil, err
	}
	limit, err := lv.AsInt()
	if err != nil {
		return nil, err
	}
	var offset int64
	if b.offset != nil {
		ov, err := ev.eval(b.offset)
		if err != nil {
			return nil, err
		}
		offset, err = ov.AsInt()
		if err != nil {
			return nil, err
		}
	}
	if offset < 0 {
		offset = 0
	}
	if offset >= int64(len(out)) {
		return nil, nil
	}
	out = out[offset:]
	if limit >= 0 && int64(len(out)) > limit {
		out = out[:limit]
	}
	return out, nil
}
