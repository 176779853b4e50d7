package sqlengine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
	ev := env{params: s.params, like: s.likes(b)}

	// The working lists — the WHERE survivors of an ungrouped query and the
	// rows to order — grow in the session's scratch and go back to it
	// cleared, whichever way the statement ends. A list that fails or is
	// replaced is simply dropped.
	sink := rowSink{rows: s.selRows[:0], grouped: b.grouped}
	out := s.selOut[:0]
	defer func() {
		s.selRows, s.selOut = truncated(sink.rows), truncated(out)
		if sink.grouped {
			sink.g.release()
		}
	}()
	if b.grouped {
		if err := sink.g.init(b, ev); err != nil {
			return nil, err
		}
	}

	// Both row producers apply WHERE while they scan and hand each survivor
	// to the sink, which a grouped query folds into its group there.
	var orderDone bool
	if len(b.srcs) == 1 {
		orderDone, err = s.singleTableRows(sel, b, rv, &sink, ev)
	} else {
		err = s.joinRows(sel, b, rv, &sink, ev)
	}
	if err != nil {
		return nil, err
	}
	if b.headerErr != nil {
		return nil, b.headerErr
	}

	// An ungrouped row projects now; a group projects when it is known to
	// be returned, unless DISTINCT or a full sort reads its projection
	// first.
	if b.grouped {
		out, err = sink.g.groups(out)
	} else {
		out = grown(out, len(sink.rows))
		for _, r := range sink.rows {
			out = append(out, outRow{row: r})
		}
		err = project(b, out, ev)
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT, ORDER BY and LIMIT narrow and reorder live, a view of out.
	live := out
	if sel.Distinct {
		if err := project(b, live, ev); err != nil {
			return nil, err
		}
		live = distinctRows(live, len(b.header))
	}

	// ORDER BY lists live's rows in order in idx. Under a LIMIT that keeps
	// fewer than all of them only the first end are kept (top-K), with
	// their keys in top. A LIMIT or OFFSET that does not evaluate is
	// reported after ORDER BY's own errors.
	offset, end, limitErr := limits(b, s.params)
	var idx []int
	var keys []orderKey
	var top []sqlval.Value
	if len(sel.OrderBy) > 0 && !orderDone {
		if keys, err = orderKeys(sel, b, s.params); err != nil {
			return nil, err
		}
		if limitErr == nil && end >= 0 && end < int64(len(live)) {
			idx, top, err = topRows(sel, b, keys, live, int(end), ev)
		} else if err = project(b, live, ev); err == nil {
			idx, err = sortRows(sel, b, keys, live, ev)
		}
		if err != nil {
			return nil, err
		}
	}
	if limitErr != nil {
		return nil, limitErr
	}
	n := int64(len(live))
	if idx != nil {
		n = int64(len(idx))
	}
	lo, hi := min(offset, n), n
	if end >= 0 {
		hi = min(end, n)
	}

	// A projected row is a capped view of the slab projection wrote. When
	// DISTINCT or LIMIT kept fewer than half the projected rows, the
	// survivors move to a slab of their own, so a short result (which the
	// result cache weighs by its own rows) does not pin the rows it
	// dropped; a row not projected yet projects straight into that slab.
	// The header is the binding's, shared read-only by every result.
	res := &Result{Columns: b.header, Rows: make([][]sqlval.Value, hi-lo)}
	k := len(b.header)
	projected := len(live) == 0 || live[0].vals != nil
	var slab []sqlval.Value
	if !projected || 2*len(res.Rows) < len(out) {
		slab = make([]sqlval.Value, len(res.Rows)*k)
	}
	for i := range res.Rows {
		j := int(lo) + i
		r := live[j]
		if idx != nil {
			r = live[idx[j]]
		}
		switch {
		case slab == nil:
			res.Rows[i] = r.vals
		case projected:
			res.Rows[i] = slabRow(slab, i, k)
			copy(res.Rows[i], r.vals)
		default:
			pv := slabRow(slab, i, k)
			ev.row, ev.aggs = r.row, r.aggs
			if err := projectOne(b, &ev, pv); err != nil {
				return nil, err
			}
			// An output column ORDER BY read holds the value it was
			// ordered by, even where a second evaluation (RAND()) differs.
			for ki, key := range keys {
				if key.pos >= 0 {
					pv[key.pos] = top[j*len(keys)+ki]
				}
			}
			res.Rows[i] = pv
		}
	}
	return res, nil
}

// selectNoFrom evaluates a FROM-less select (SELECT 1, SELECT NOW()): one
// row, kept when WHERE and HAVING hold and the LIMIT and OFFSET window
// covers it. Its items are evaluated only when it is kept.
func (s *Session) selectNoFrom(sel *sqlparser.Select, b *binding) (*Result, error) {
	if slices.ContainsFunc(sel.Items, func(it sqlparser.SelectItem) bool { return it.Star }) {
		return nil, errf("SELECT * requires FROM")
	}
	offset, end, err := limits(b, s.params)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: b.header}
	ev := &env{params: s.params}
	for _, c := range []*bexpr{b.where, b.having} {
		ok, err := ev.holds(c, nil)
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
	}
	if offset > 0 || end == 0 {
		return res, nil
	}
	row := make([]sqlval.Value, len(sel.Items))
	for i := range sel.Items {
		if row[i], err = ev.eval(b.items[i]); err != nil {
			return nil, err
		}
	}
	res.Rows = [][]sqlval.Value{row}
	return res, nil
}

// rowSink takes the rows a producer yields, WHERE already applied. A
// grouped query folds each into its group as it comes; any other keeps it
// in rows. A transient row lives in the producer's scratch and is copied
// before it is kept.
type rowSink struct {
	rows    [][]sqlval.Value
	grouped bool
	g       grouper
}

func (k *rowSink) add(row []sqlval.Value, transient bool) error {
	if k.grouped {
		return k.g.add(row, transient)
	}
	if transient {
		row = slices.Clone(row)
	}
	k.rows = append(k.rows, row)
	return nil
}

// singleTableRows produces a one-table FROM clause into sink. Unlike the
// join path, rows are yielded as stored — no pad-to-join-width copy —
// because the engine never mutates a stored row in place (updates replace
// the whole slice). The access planner turns indexable WHERE conjuncts into
// rowid candidates, the WHERE clause is applied during the scan, and a LIMIT
// stops the scan as soon as enough rows matched whenever no later stage
// reorders, merges or dedups rows — including ORDER BY satisfied by an
// ordered-index scan: rows then stream out of the index in final order and
// the scan halts after LIMIT+OFFSET live-at-epoch matches. The returned flag
// reports that the row order already satisfies ORDER BY.
func (s *Session) singleTableRows(sel *sqlparser.Select, b *binding, rv readView, sink *rowSink, ev env) (bool, error) {
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
		return op.done, nil
	}

	var evalErr error
	var yielded int64
	add := func(row []sqlval.Value) bool {
		m, err := ev.holds(b.where, row)
		if err != nil {
			evalErr = err
			return false
		}
		if !m {
			return true
		}
		if err := sink.add(row, false); err != nil {
			evalErr = err
			return false
		}
		yielded++
		return budget < 0 || yielded < budget
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
		return true, evalErr
	}

	if plan.indexed {
		if !sink.grouped {
			n := int64(len(plan.refs))
			if budget >= 0 {
				n = min(n, budget)
			}
			sink.rows = grown(sink.rows, int(n))
		}
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
	return op.done, evalErr
}

// scanBudget is the LIMIT pushdown budget: offset+limit WHERE survivors
// suffice when no later stage reorders, merges or dedups rows (callers
// check that). It is -1 when there is no usable LIMIT.
func scanBudget(b *binding, params []sqlval.Value) int64 {
	_, end, err := limits(b, params)
	if err != nil {
		return -1
	}
	return end
}

// limits evaluates LIMIT and OFFSET into the window [offset, end) of the
// ordered rows. end is -1 when there is no LIMIT or it is negative, and
// saturates at MaxInt64; offset is 0 when there is no LIMIT or the OFFSET
// is negative.
func limits(b *binding, params []sqlval.Value) (offset, end int64, err error) {
	if b.limit == nil {
		return 0, -1, nil
	}
	ev := &env{params: params}
	lv, err := ev.eval(b.limit)
	if err != nil {
		return 0, -1, err
	}
	limit, err := lv.AsInt()
	if err != nil {
		return 0, -1, err
	}
	if b.offset != nil {
		ov, err := ev.eval(b.offset)
		if err != nil {
			return 0, -1, err
		}
		if offset, err = ov.AsInt(); err != nil {
			return 0, -1, err
		}
		offset = max(offset, 0)
	}
	if limit < 0 {
		return offset, -1, nil
	}
	if limit > math.MaxInt64-offset {
		return offset, math.MaxInt64, nil
	}
	return offset, offset + limit, nil
}

// joinRows produces the FROM clause into sink with nested-loop joins, using
// a hash index for equi-joins when one is available. Rows grow left to
// right: the base table's rows are used as stored, and each later stage
// assembles every candidate pair in one full-width scratch row, evaluates ON
// there and clones only the survivors, at the width joined so far.
// Positions of tables not joined yet stay NULL in the scratch row, as in a
// padded row. The last stage applies WHERE and hands the scratch row to the
// sink, which copies what it keeps (a grouped query: a group's first row
// only); when no later stage reorders, merges or dedups rows, it stops after
// offset+limit survivors.
func (s *Session) joinRows(sel *sqlparser.Select, b *binding, rv readView, sink *rowSink, ev env) error {
	// WHERE conjuncts on the base table narrow it through the access
	// planner; the full WHERE clause still filters at the last stage, so
	// this only prunes rows that could never survive it (valid for LEFT JOIN
	// too, since the base is the preserved side).
	base := b.srcs[0]
	var rows [][]sqlval.Value
	if plan := planAccess(s.engine, base.t, b.conj, s.params); plan.indexed {
		rows = make([][]sqlval.Value, 0, len(plan.refs))
		for _, ch := range plan.refs {
			if r := rv.resolve(ch); r != nil {
				rows = append(rows, r)
			}
		}
	} else {
		rows = make([][]sqlval.Value, 0, base.t.scanLen())
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
		return nil
	}
	scratch := make([]sqlval.Value, b.width)
	noIndex := s.engine.noIndexPlan.Load()
	var kept int64 // rows the last stage gave the sink
	for i := 1; i < len(b.srcs) && len(rows) > 0; i++ {
		src := b.srcs[i]
		stage := &b.joins[i-1]
		last := i == len(b.srcs)-1
		width := src.offset + len(src.t.schema.Columns)
		part := scratch[src.offset:width]
		var next [][]sqlval.Value
		var evalErr error
		matched, full := false, false

		// keep passes the scratch row on if it survives WHERE (last stage
		// only) and reports whether the stage should go on.
		keep := func() bool {
			if !last {
				next = append(next, slices.Clone(scratch[:width]))
				return true
			}
			m, err := ev.holds(b.where, scratch)
			if err != nil {
				evalErr = err
				return false
			}
			if !m {
				return true
			}
			if err := sink.add(scratch[:width], true); err != nil {
				evalErr = err
				return false
			}
			kept++
			full = budget >= 0 && kept >= budget
			return !full
		}
		try := func(r []sqlval.Value) bool {
			copy(part, r)
			m, err := ev.holds(stage.on, scratch)
			if err != nil {
				evalErr = err
				return false
			}
			if !m {
				return true
			}
			matched = true
			return keep()
		}

		// An indexed equi-join (ON left.col = right.col with the new
		// table's column indexed) probes the index the binding chose. The
		// last stage probes its filtered build side instead when it has one.
		useIndex := stage.ix != nil && !noIndex
		var bs *buildSide
		if last && useIndex && sel.From[i].Join == sqlparser.JoinInner && src.t.scanLen() <= len(rows) {
			if leaf, _ := stageLeaf(b.where, s.params, src.offset, width); leaf != nil {
				bs = new(buildSide)
				bs.build(src.t, rv, &ev, leaf, src.offset, stage.build)
			}
		}
		buildType := src.t.schema.Columns[stage.build].Type
		for _, left := range rows {
			copy(scratch, left)
			matched = false
			// An index probe is only sound when the probe value's key class
			// matches the build column's: cross-class values (string '5'
			// against an INTEGER column) can compare equal through the
			// textual fallback while hashing differently, so they scan.
			// Probed refs run in rowid order, the order a scan meets them.
			if bs != nil {
				bs.probe(scratch[stage.probe], keyCompatible(buildType, scratch[stage.probe]), try)
			} else if useIndex && keyCompatible(buildType, scratch[stage.probe]) {
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
				return evalErr
			}
			if full {
				break
			}
		}
		rows = next
	}
	return nil
}

// stageLeaf returns a leaf of where over the columns [lo, hi) of the
// combined row alone that decides WHERE whenever it is FALSE: a top-level
// AND conjunct, first or preceded only by leaves, whose constant params
// binds, so that neither it nor a leaf before it can fail. When such a leaf
// is FALSE the conjuncts before it evaluated without error, so WHERE is
// FALSE without error. It returns nil when there is none; stop reports
// that a node which may fail came first.
func stageLeaf(where *bexpr, params []sqlval.Value, lo, hi int) (leaf *bexpr, stop bool) {
	switch {
	case where == nil:
		return nil, true
	case where.op == opAnd:
		if leaf, stop = stageLeaf(where.l, params, lo, hi); leaf != nil || stop {
			return leaf, stop
		}
		return stageLeaf(where.r, params, lo, hi)
	case where.op != opCmpConst && where.op != opLikeConst:
		return nil, true
	}
	if _, ok := where.r.x.LitValue(params); !ok {
		return nil, true
	}
	if int(where.slot) < lo || int(where.slot) >= hi {
		return nil, false
	}
	return where, false
}

// buildSide is the filtered build side of a join's last stage: the rows of
// the stage's table visible at the snapshot whose stage leaf is not FALSE,
// in scan order — rowid order — keyed by the build column as index.lookup
// keys it (by IntKey, else by AppendKey bytes), each key's rows chained in
// that order. It takes the group table's storage and two slabs, however
// many keys there are.
type buildSide struct {
	keys    groupTable
	chains  []buildChain // key id's first and last entry
	entries []buildEntry // the kept rows, in scan order
}

type buildChain struct{ first, last int32 }

type buildEntry struct {
	row  []sqlval.Value
	next int32 // the key's next entry, or -1
}

// build scans t at rv and keeps the rows on which leaf, a stage leaf over
// t's columns (offset off in the combined row), is TRUE or NULL in ev,
// keyed by column col.
func (bs *buildSide) build(t *table, rv readView, ev *env, leaf *bexpr, off, col int) {
	c, _ := ev.eval(leaf.r) // stageLeaf found it bound
	slot := int(leaf.slot) - off
	size := t.scanLen()
	bs.entries = make([]buildEntry, 0, size)
	bs.chains = make([]buildChain, 0, size)
	if ct := t.schema.Columns[col].Type; ct == sqlval.KindInt || ct == sqlval.KindBool {
		bs.keys.ints = make(map[int64]int32, size)
	}
	t.scanSnap(rv, func(row []sqlval.Value) bool {
		if m := ev.test(leaf, &row[slot], &c); !m.IsNull() && !m.AsBool() {
			return true
		}
		e := int32(len(bs.entries))
		bs.entries = append(bs.entries, buildEntry{row: row, next: -1})
		id, added := bs.keys.addValue(row[col])
		if added {
			bs.chains = append(bs.chains, buildChain{e, e})
		} else {
			bs.entries[bs.chains[id].last].next = e
			bs.chains[id].last = e
		}
		return true
	})
}

// probe calls try for each kept row under v's key, in rowid order, until
// it returns false. A probe of another key class than the build column's
// (keyCompatible false) may equal rows under other keys, so it tries every
// kept row, in scan order.
func (bs *buildSide) probe(v sqlval.Value, compatible bool, try func(row []sqlval.Value) bool) {
	if !compatible {
		for _, e := range bs.entries {
			if !try(e.row) {
				return
			}
		}
		return
	}
	id, ok := bs.keys.find(v)
	if !ok {
		return
	}
	for e := bs.chains[id].first; e >= 0; e = bs.entries[e].next {
		if !try(bs.entries[e].row) {
			return
		}
	}
}

// slabRow is row i of a slab of k-value rows, capped at its own length so
// that appending to it cannot write into row i+1.
func slabRow(slab []sqlval.Value, i, k int) []sqlval.Value {
	return slab[i*k : (i+1)*k : (i+1)*k]
}

// project evaluates the select list for each of out's rows, in one reused
// environment, into one slab of len(out)·k values. Rows are projected all
// together or not at all, and a second call does nothing.
func project(b *binding, out []outRow, ev env) error {
	if len(out) == 0 || out[0].vals != nil {
		return nil
	}
	k := len(b.header)
	slab := make([]sqlval.Value, len(out)*k)
	for i := range out {
		ev.row, ev.aggs = out[i].row, out[i].aggs
		vals := slabRow(slab, i, k)
		if err := projectOne(b, &ev, vals); err != nil {
			return err
		}
		out[i].vals = vals
	}
	return nil
}

// distinctRows keeps the first of every set of equal projected rows, in
// place. A one-column row is numbered by its value, any other by its
// composite key built in a reused buffer, so no row allocates.
func distinctRows(live []outRow, k int) []outRow {
	var seen groupTable
	var key []byte
	dedup := live[:0]
	for _, r := range live {
		var added bool
		if k == 1 {
			_, added = seen.addValue(r.vals[0])
		} else {
			key = appendRowKey(key[:0], r.vals)
			_, added = seen.addKey(key)
		}
		if added {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// grouper implements GROUP BY / aggregate evaluation in one pass: the
// producer hands it each row as it yields it, and the row is folded into
// its group's accumulators there — one per aggregate, all groups' in one
// slab that grows as groups appear. A group is numbered in first-seen order
// through a group table, by its one key's value or by its keys' composite
// key built in a reused buffer, so no group allocates its key. The group
// keeps its first row, not its rows: a stored row as it is, since stored
// rows are immutable, and a transient join row copied into a slab that
// grows by doubling. The integer group map, the first rows and the
// accumulators are a groupMem from a shared pool.
type grouper struct {
	b      *binding
	ev     env
	table  groupTable
	key    []byte           // composite key scratch
	firsts [][]sqlval.Value // group g's first row
	accs   []aggAcc         // group g's accumulators are accs[g*na:(g+1)*na]
	copies []sqlval.Value   // transient first rows, copied
	mem    *groupMem        // where ints, firsts and accs came from
}

// groupMem is GROUP BY's working memory between statements: a grouping
// that ends gives its integer group map, first-row list and accumulator
// slab back to groupMems cleared, so the next grouping does not regrow and
// rehash them — unless it had room for more than groupMemCap groups, and
// then it goes to the collector: a statement that once grouped many rows
// does not pin their memory.
type groupMem struct {
	ints   map[int64]int32
	firsts [][]sqlval.Value
	accs   []aggAcc
}

// groupMems is the pool every engine's groupings share. It is not a field
// of Engine: the runtime lists every pool in use until two collections
// after its last use, and a pool inside an engine would keep the whole
// engine, its tables included, alive that long after it is dropped.
var groupMems sync.Pool

// groupMemCap bounds the groups a recycled groupMem holds room for.
// TPC-W's bestSellers has at most one group per item, 1 000.
const groupMemCap = 2048

// init readies g for b's rows, evaluated in ev, with working memory from
// groupMems; it fails for an aggregate call with the wrong number of
// arguments.
func (g *grouper) init(b *binding, ev env) error {
	for _, ae := range b.aggs {
		if ae.fn != aggCountRows && len(ae.args) != 1 {
			return errf("%s expects one argument", ae.x.Func)
		}
	}
	g.b, g.ev = b, ev
	g.mem, _ = groupMems.Get().(*groupMem)
	if g.mem == nil {
		g.mem = new(groupMem)
	}
	g.table.ints, g.firsts, g.accs = g.mem.ints, g.mem.firsts, g.mem.accs
	return nil
}

// release gives g's working memory back to groupMems, cleared, unless it
// grew past groupMemCap.
func (g *grouper) release() {
	m := g.mem
	if m == nil {
		return
	}
	g.mem = nil
	if cap(g.firsts) > groupMemCap {
		return
	}
	clear(g.table.ints)
	clear(g.firsts)
	clear(g.accs)
	m.ints, m.firsts, m.accs = g.table.ints, g.firsts[:0], g.accs[:0]
	groupMems.Put(m)
}

// add folds row into its group, opening the group when row is its first.
func (g *grouper) add(row []sqlval.Value, transient bool) error {
	b := g.b
	g.ev.row = row
	// Without GROUP BY every row is in group 0.
	id, added := int32(0), len(g.firsts) == 0
	switch len(b.groupBy) {
	case 0:
	case 1:
		v, err := g.ev.eval(b.groupBy[0])
		if err != nil {
			return err
		}
		id, added = g.table.addValue(v)
	default:
		g.key = g.key[:0]
		for _, x := range b.groupBy {
			v, err := g.ev.eval(x)
			if err != nil {
				return err
			}
			g.key = appendKeyPart(g.key, v)
		}
		id, added = g.table.addKey(g.key)
	}
	na := len(b.aggs)
	if added {
		if transient {
			g.copies = append(g.copies, row...)
			n := len(g.copies)
			row = g.copies[n-len(row) : n : n]
		}
		g.firsts = append(g.firsts, row)
		for j := 0; j < na; j++ {
			g.accs = append(g.accs, aggAcc{})
		}
	}
	accs := g.accs[int(id)*na : (int(id)+1)*na]
	for j, ae := range b.aggs {
		if err := accs[j].add(ae, &g.ev); err != nil {
			return err
		}
	}
	return nil
}

// groups ends the fold. Each group's aggregates are computed into one slab
// and HAVING evaluates once per group; the groups it keeps are listed, in
// first-seen order and not projected, in out, an empty list whose storage
// they reuse. A bound aggregate call reads its slot of the group's values.
func (g *grouper) groups(out []outRow) ([]outRow, error) {
	b, na := g.b, len(g.b.aggs)
	// The implicit group over no rows exists (COUNT(*) of an empty table is
	// 0), and its row is all NULL, so a bare column in the select list or
	// HAVING reads NULL.
	if len(b.groupBy) == 0 && len(g.firsts) == 0 {
		g.firsts = append(g.firsts, make([]sqlval.Value, b.width))
		g.accs = append(g.accs, make([]aggAcc, na)...)
	}
	vals := make([]sqlval.Value, len(g.firsts)*na)
	out = grown(out, len(g.firsts))
	for i, first := range g.firsts {
		gv := vals[i*na : (i+1)*na : (i+1)*na]
		for j, ae := range b.aggs {
			gv[j] = g.accs[i*na+j].result(ae.fn)
		}
		if b.having != nil {
			g.ev.row, g.ev.aggs = first, gv
			m, err := g.ev.eval(b.having)
			if err != nil {
				return nil, err
			}
			if !m.AsBool() {
				continue
			}
		}
		out = append(out, outRow{row: first, aggs: gv})
	}
	return out, nil
}

// The aggregate kinds an aggregate call binds to (bexpr.fn).
const (
	aggCount     uint8 = iota
	aggCountRows       // COUNT(*) and COUNT(): counts rows, not values
	aggSum
	aggAvg
	aggMin
	aggMax
)

// aggKind is the kind of the aggregate call x.
func aggKind(x *sqlparser.Expr) uint8 {
	if x.Func == "COUNT" && (len(x.Args) == 0 || len(x.Args) == 1 && x.Args[0].Kind == sqlparser.ExprStar) {
		return aggCountRows
	}
	return aggKinds[x.Func]
}

var aggKinds = map[string]uint8{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// aggAcc is one aggregate's running state within one group. count is the
// number of non-NULL (for DISTINCT: distinct) inputs, or of rows for
// COUNT(*); SUM and AVG add into sum, and into the exact sumInt while every
// input is an integer and the integer sum does not overflow; MIN and MAX
// keep the extreme input in ext.
type aggAcc struct {
	count   int64
	sum     float64
	sumInt  int64
	inexact bool // a non-integer was summed or sumInt overflowed: SUM answers sum
	ext     sqlval.Value
	seen    *groupTable // DISTINCT only: the inputs counted
}

// add folds the current row of ev into the accumulator.
func (a *aggAcc) add(ae *bexpr, ev *env) error {
	if ae.fn == aggCountRows {
		a.count++
		return nil
	}
	v, err := ev.eval(ae.args[0])
	if err != nil || v.IsNull() {
		return err
	}
	if ae.x.Distinct {
		if a.seen == nil {
			a.seen = new(groupTable)
		}
		if _, added := a.seen.addValue(v); !added {
			return nil
		}
	}
	switch ae.fn {
	case aggSum, aggAvg:
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		a.sum += f
		// The sum overflows exactly when adding a positive (negative)
		// value does not make it larger (smaller).
		if s := a.sumInt + v.I; v.K == sqlval.KindInt && (s > a.sumInt) == (v.I > 0) {
			a.sumInt = s
		} else {
			a.inexact = true
		}
	case aggMin:
		if a.count == 0 || sqlval.Compare(v, a.ext) < 0 {
			a.ext = v
		}
	case aggMax:
		if a.count == 0 || sqlval.Compare(v, a.ext) > 0 {
			a.ext = v
		}
	}
	a.count++
	return nil
}

// result is the value of an aggregate of kind fn over everything added.
func (a *aggAcc) result(fn uint8) sqlval.Value {
	switch fn {
	case aggCount, aggCountRows:
		return sqlval.Int(a.count)
	case aggSum, aggAvg:
		switch {
		case a.count == 0:
			return sqlval.Null
		case fn == aggAvg:
			return sqlval.Float(a.sum / float64(a.count))
		case !a.inexact:
			return sqlval.Int(a.sumInt)
		}
		return sqlval.Float(a.sum)
	}
	return a.ext // MIN, MAX: NULL when nothing was added
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

// orderKeys resolves ORDER BY's keys: to output aliases (bound), then to
// positional integers, else to expressions evaluated on a row's source row
// and aggregates.
func orderKeys(sel *sqlparser.Select, b *binding, params []sqlval.Value) ([]orderKey, error) {
	keys := make([]orderKey, len(sel.OrderBy))
	for i, oi := range sel.OrderBy {
		keys[i] = b.order[i]
		if lit, ok := oi.Expr.LitValue(params); ok {
			keys[i].pos = -1
			if lit.K == sqlval.KindInt {
				pos := int(lit.I) - 1
				if pos < 0 || pos >= len(b.header) {
					return nil, errf("ORDER BY position %d out of range", lit.I)
				}
				keys[i].pos = pos
			}
		}
	}
	return keys, nil
}

// rowKeys evaluates r's ORDER BY keys into dst. An output column reads r's
// projection, or evaluates its select item when r is not projected.
func rowKeys(b *binding, keys []orderKey, ev *env, r outRow, dst []sqlval.Value) error {
	ev.row, ev.aggs = r.row, r.aggs
	for i, k := range keys {
		var err error
		switch {
		case k.pos < 0:
			dst[i], err = ev.eval(k.expr)
		case r.vals != nil:
			dst[i] = r.vals[k.pos]
		default:
			dst[i], err = outputValue(b, ev, k.pos)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// outputValue is output column pos of the row in ev, as projectOne would
// write it.
func outputValue(b *binding, ev *env, pos int) (sqlval.Value, error) {
	for i, it := range b.items {
		if it == nil {
			sp := b.stars[i]
			if pos < sp.hi-sp.lo {
				return ev.row[sp.lo+pos], nil
			}
			pos -= sp.hi - sp.lo
			continue
		}
		if pos == 0 {
			return ev.eval(it)
		}
		pos--
	}
	return sqlval.Null, errf("output column %d out of range", pos)
}

// compareKeys orders two rows' decorated keys under ORDER BY.
func compareKeys(order []sqlparser.OrderItem, ka, kb []sqlval.Value) int {
	for i := range ka {
		if c := sqlval.Compare(ka[i], kb[i]); c != 0 {
			if order[i].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortRows lists live's rows in ORDER BY order, every row projected. Key
// extraction is hoisted out of the comparator (decorate-sort-undecorate):
// each row's keys are resolved exactly once into one slab, in one reused
// environment, and a stable sort orders an index over it. The sort
// allocates the keys, the slab and the index.
func sortRows(sel *sqlparser.Select, b *binding, keys []orderKey, live []outRow, ev env) ([]int, error) {
	nk := len(keys)
	dec := make([]sqlval.Value, len(live)*nk)
	for r := range live {
		if err := rowKeys(b, keys, &ev, live[r], dec[r*nk:(r+1)*nk]); err != nil {
			return nil, err
		}
	}
	idx := make([]int, len(live))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(x, y int) int {
		return compareKeys(sel.OrderBy, dec[x*nk:(x+1)*nk], dec[y*nk:(y+1)*nk])
	})
	return idx, nil
}

// topRows is sortRows for ORDER BY … LIMIT when only the first m < len(live)
// rows can be returned (top-K). Every row's keys are still evaluated, in
// order, but only the m least rows seen so far are kept, in a max-heap
// ordered by (keys, position): the root is the row a lesser one evicts, and
// a later row with equal keys never does, so the m kept are exactly the
// stable sort's first m. Only they are sorted (heapsort), and the rows are
// not projected. It returns the kept rows' positions in order and their
// keys, m at a time.
func topRows(sel *sqlparser.Select, b *binding, keys []orderKey, live []outRow, m int, ev env) ([]int, []sqlval.Value, error) {
	// Entries 0..m-1 are the heap, entry m the row being considered.
	h := topHeap{order: sel.OrderBy, nk: len(keys), pos: make([]int, m+1), dec: make([]sqlval.Value, (m+1)*len(keys))}
	for i := range live {
		e := min(i, m)
		if err := rowKeys(b, keys, &ev, live[i], h.keys(e)); err != nil {
			return nil, nil, err
		}
		h.pos[e] = i
		switch {
		case i == m-1: // the first m rows are in: order them into a heap
			for p := m/2 - 1; p >= 0; p-- {
				h.down(p, m)
			}
		case i >= m && h.cmp(m, 0) < 0:
			h.pos[0] = h.pos[m]
			copy(h.keys(0), h.keys(m))
			h.down(0, m)
		}
	}
	for last := m - 1; last > 0; last-- {
		h.swap(0, last)
		h.down(0, last)
	}
	return h.pos[:m], h.dec[:m*h.nk], nil
}

// topHeap is topRows' heap: entry e is row pos[e] with keys
// dec[e*nk:(e+1)*nk].
type topHeap struct {
	order []sqlparser.OrderItem
	nk    int
	pos   []int
	dec   []sqlval.Value
}

func (h *topHeap) keys(e int) []sqlval.Value { return h.dec[e*h.nk : (e+1)*h.nk] }

// cmp orders entries by keys, then by position.
func (h *topHeap) cmp(x, y int) int {
	if c := compareKeys(h.order, h.keys(x), h.keys(y)); c != 0 {
		return c
	}
	return h.pos[x] - h.pos[y]
}

func (h *topHeap) swap(x, y int) {
	h.pos[x], h.pos[y] = h.pos[y], h.pos[x]
	kx, ky := h.keys(x), h.keys(y)
	for i := range kx {
		kx[i], ky[i] = ky[i], kx[i]
	}
}

// down restores the heap of entries [0, n) below entry e.
func (h *topHeap) down(e, n int) {
	for {
		c := 2*e + 1
		if c >= n {
			return
		}
		if c+1 < n && h.cmp(c+1, c) > 0 {
			c++
		}
		if h.cmp(c, e) <= 0 {
			return
		}
		h.swap(e, c)
		e = c
	}
}
