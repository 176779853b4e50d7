package sqlengine

import (
	"math"
	"slices"
	"strings"

	"cjdbc/internal/sqlparser"
)

// This file binds a statement tree to the catalog: it resolves every name
// the tree uses — tables, columns, indexes, the output header — once, into
// a binding that each execution then reads by position. A binding is valid
// for one engine at one catalog epoch (Engine.catalogEpoch, bumped by every
// DDL and every DDL undo under the exclusive catalog lock), and lives on
// the tree itself (sqlparser.Bindings), one per engine, so it dies with the
// tree. A session that holds a temporary table binds every statement on
// every execution and keeps nothing: a temporary table is the session's
// own, and creating or dropping one does not touch the epoch.

// srcTable is one resolved FROM entry (or the target of a write).
type srcTable struct {
	t      *table
	name   string // table name, lower-cased
	alias  string // alias or name
	offset int    // column offset in the combined row
}

// bexpr is an expression bound to one FROM shape: each node knows what
// evaluating it does (op), a column reference knows its position in the
// combined row and an aggregate call its index among the query's
// aggregates, so evaluating it looks nothing up by name.
type bexpr struct {
	x  *sqlparser.Expr // the parsed node: literal, parameter, NOT, DISTINCT, and the names errors report
	op opcode
	// fn is a call's index in builtins (opFunc), an aggregate's kind (opAgg)
	// or a LIKE leaf's matcher in env.like (opLikeConst).
	fn  uint8
	cmp uint8 // opCmp, opCmpConst: the outcomes of sqlval.Compare that make it true
	// slot is a column's position in the combined row (opColumn, and for a
	// leaf — opCmpConst, opLikeConst — its column's); for an aggregate call
	// of a grouped query's select list, HAVING or ORDER BY, its index in
	// env.aggs, and -1 for every other call. An int32, so that with op, fn
	// and cmp it fits in one word and a node stays 56 bytes.
	slot int32
	l, r *bexpr   // Left and Right; a leaf's column and constant
	args []*bexpr // Args; List for IN; Low and High for BETWEEN
}

// binding is what one engine compiled from one statement tree at one
// catalog epoch. INSERT, UPDATE and DELETE bind their target as srcs[0].
type binding struct {
	epoch uint64
	srcs  []srcTable

	// like holds a matcher per LIKE leaf: compiled here for a literal
	// pattern, compiled by each execution for the leaves in likeParams,
	// whose pattern is a parameter (Session.likes).
	like       []likeMatcher
	likeParams []*bexpr

	where *bexpr
	conj  []conjunct // WHERE's indexable conjuncts on srcs[0]

	// SELECT: the combined row's width, the select list (nil for a star
	// item) and each star's span of the row, the result's column names
	// (shared read-only by every result) or the error a star item that
	// resolves to no FROM entry reports after the scan, the aggregate calls
	// in slot order, and the remaining clauses.
	width     int
	items     []*bexpr
	stars     []span
	header    []string
	headerErr error
	aggs      []*bexpr
	grouped   bool // GROUP BY or an aggregate
	groupBy   []*bexpr
	having    *bexpr
	order     []orderKey
	limit     *bexpr
	offset    *bexpr
	joins     []joinStage // per FROM entry after the first

	// INSERT and UPDATE: the written columns' positions, the VALUES rows
	// (nil for a literal; vals is nil when every value is one), the SET
	// values.
	cols []int
	vals [][]*bexpr
	set  []*bexpr
}

// joinStage is one join step: its ON clause and, when ON is an equality
// between a column of the new table that an index covers and a column of
// the tables joined so far, the index the inner side is probed through.
type joinStage struct {
	on    *bexpr
	ix    *index // nil: scan the new table for every outer row
	probe int    // the outer column's position in the combined row
	build int    // the indexed column of the new table
}

// conjunct is a top-level AND conjunct of WHERE in a shape an index can
// answer: a leaf comparing the column by =, <, <=, > or >= with its
// operand r, col IN args or col BETWEEN args[0] AND args[1], where the
// operands are literals or parameters.
type conjunct struct {
	n   *bexpr // the bound conjunct: opCmpConst, opIn or opBetween
	col int    // the access table's column
	ix  *index // the column's single-column index, nil when none
}

// binder builds one binding.
type binder struct {
	srcs       []srcTable
	aggs       []*sqlparser.Expr // the aggregate calls slots number
	free       []bexpr           // nodes not handed out yet
	made       int               // nodes allocated so far
	like       []likeMatcher     // binding.like
	likeParams []*bexpr          // binding.likeParams
	needle     []byte            // the literal patterns' folded needles
}

// cachedBinding returns the binding slot holds for this engine when it is
// bound at the current epoch and the session holds no temporary table. A
// binding of an earlier epoch is dropped, so the tables and indexes it
// names are not kept reachable until the tree binds again (if it ever
// does: a tree whose table is gone fails to bind). Caller holds e.mu.
func (s *Session) cachedBinding(slot *sqlparser.Bindings) *binding {
	b, _ := slot.Load(s.engine).(*binding)
	if b == nil {
		return nil
	}
	if b.epoch != s.engine.catalogEpoch {
		slot.Store(s.engine, nil)
		return nil
	}
	if s.holdsTemp() {
		return nil
	}
	return b
}

// keep stores b in slot unless the session holds a temporary table.
func (s *Session) keep(slot *sqlparser.Bindings, b *binding) {
	if !s.holdsTemp() {
		slot.Store(s.engine, b)
	}
}

// holdsTemp reports whether the session holds a temporary table.
func (s *Session) holdsTemp() bool { return len(*s.temp.Load()) > 0 }

// bindSelect returns sel's binding, compiling it on first use at this
// epoch. Caller holds e.mu.
func (s *Session) bindSelect(sel *sqlparser.Select) (*binding, error) {
	if b := s.cachedBinding(sel.Bind); b != nil {
		return b, nil
	}
	b := &binding{epoch: s.engine.catalogEpoch}
	var bd binder
	if len(sel.From) > 0 {
		b.srcs = make([]srcTable, len(sel.From))
	}
	for i, tr := range sel.From {
		name := strings.ToLower(tr.Table)
		t := s.resolveLocked(name)
		if t == nil {
			return nil, &TableNotFoundError{Table: tr.Table}
		}
		alias := strings.ToLower(tr.Alias)
		if alias == "" {
			alias = name
		}
		b.srcs[i] = srcTable{t: t, name: name, alias: alias, offset: b.width}
		b.width += len(t.schema.Columns)
	}
	bd.srcs = b.srcs

	// The aggregate calls are collected before anything binds, so every
	// occurrence of one binds to its slot.
	collect := func(ex *sqlparser.Expr) {
		ex.Walk(func(n *sqlparser.Expr) {
			if n.Kind == sqlparser.ExprFunc && sqlparser.IsAggregate(n.Func) {
				bd.aggs = append(bd.aggs, n)
			}
		})
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}
	b.grouped = len(sel.GroupBy) > 0 || len(bd.aggs) > 0
	b.aggs = bd.exprs(bd.aggs)

	b.items = make([]*bexpr, len(sel.Items))
	for i, it := range sel.Items {
		if !it.Star {
			b.items[i] = bd.expr(it.Expr)
		}
	}
	b.where = bd.expr(sel.Where)
	b.groupBy = bd.exprs(sel.GroupBy)
	b.having = bd.expr(sel.Having)
	// LIMIT and OFFSET are evaluated with no row: like VALUES, they see no
	// columns, and a reference to one fails when it is evaluated.
	var nb binder
	b.limit, b.offset = nb.expr(sel.Limit), nb.expr(sel.Offset)
	if len(b.srcs) == 0 {
		// Without FROM every clause was bound against no table, so each
		// sees no columns either.
		b.header = make([]string, len(sel.Items))
		for i, it := range sel.Items {
			b.header[i] = itemName(it, i)
		}
		s.keep(sel.Bind, b)
		return b, nil
	}

	b.conj = conjuncts(nil, b.where, b.srcs[0])
	for i := 1; i < len(b.srcs); i++ {
		st := joinStage{on: bd.expr(sel.From[i].On)}
		st.ix, st.probe, st.build = joinProbe(st.on, b.srcs[i])
		b.joins = append(b.joins, st)
	}
	b.header, b.stars, b.headerErr = outputColumns(sel, b.srcs)
	if len(sel.OrderBy) > 0 {
		b.order = make([]orderKey, len(sel.OrderBy))
		for i, oi := range sel.OrderBy {
			b.order[i] = orderKey{pos: -1, expr: bd.expr(oi.Expr)}
			if ex := oi.Expr; ex.Kind == sqlparser.ExprColumn && ex.Table == "" {
				// A bare name prefers an output column (alias reference).
				b.order[i].pos = slices.Index(b.header, ex.Column)
			}
		}
	}
	b.like, b.likeParams = bd.like, bd.likeParams
	s.keep(sel.Bind, b)
	return b, nil
}

// bindTarget starts the binding of an INSERT, UPDATE or DELETE of the
// table name: the target is srcs[0]. Caller holds e.mu.
func (s *Session) bindTarget(name string) (*binding, error) {
	t := s.resolveLocked(name)
	if t == nil {
		return nil, &TableNotFoundError{Table: name}
	}
	return &binding{epoch: s.engine.catalogEpoch, srcs: []srcTable{{t: t, name: name, alias: name}}}, nil
}

// bindInsert returns ins's binding, compiling it on first use at this
// epoch: the target, the written columns' positions and the VALUES rows.
// Caller holds e.mu.
func (s *Session) bindInsert(ins *sqlparser.Insert, name string) (*binding, error) {
	if b := s.cachedBinding(ins.Bind); b != nil {
		return b, nil
	}
	b, err := s.bindTarget(name)
	if err != nil {
		return nil, err
	}
	schema := b.srcs[0].t.schema
	if len(ins.Columns) > 0 {
		b.cols = make([]int, len(ins.Columns))
		for i, c := range ins.Columns {
			if b.cols[i] = schema.ColumnIndex(c); b.cols[i] < 0 {
				return nil, errf("unknown column %q in INSERT into %s", c, name)
			}
		}
	} else {
		b.cols = make([]int, len(schema.Columns))
		for i := range b.cols {
			b.cols[i] = i
		}
	}
	// VALUES expressions see no columns: a reference to one fails when it
	// is evaluated. A literal needs no node: execution reads it from the
	// tree, as it reads any operand, so a bulk load of literals binds no
	// rows at all. Otherwise the rows share one slab of node pointers.
	total, exprs := 0, false
	for _, row := range ins.Rows {
		total += len(row)
		exprs = exprs || slices.ContainsFunc(row, func(x *sqlparser.Expr) bool { return x.Kind != sqlparser.ExprLiteral })
	}
	if exprs {
		var vb binder
		slab := make([]*bexpr, 0, total)
		b.vals = make([][]*bexpr, len(ins.Rows))
		for i, row := range ins.Rows {
			for _, x := range row {
				var n *bexpr
				if x.Kind != sqlparser.ExprLiteral {
					n = vb.expr(x)
				}
				slab = append(slab, n)
			}
			b.vals[i] = slab[len(slab)-len(row):]
		}
	}
	s.keep(ins.Bind, b)
	return b, nil
}

// bound is VALUES row r's item i, or nil when it is a literal.
func (b *binding) bound(r, i int) *bexpr {
	if b.vals == nil {
		return nil
	}
	return b.vals[r][i]
}

// bindWrite returns the binding of an UPDATE (set non-nil) or DELETE of
// the table name, compiling it on first use at this epoch: the target,
// WHERE and its indexable conjuncts, the SET columns and values. Caller
// holds e.mu.
func (s *Session) bindWrite(slot *sqlparser.Bindings, name string, where *sqlparser.Expr, set []sqlparser.Assignment) (*binding, error) {
	if b := s.cachedBinding(slot); b != nil {
		return b, nil
	}
	b, err := s.bindTarget(name)
	if err != nil {
		return nil, err
	}
	bd := binder{srcs: b.srcs}
	schema := b.srcs[0].t.schema
	b.cols = make([]int, len(set))
	b.set = make([]*bexpr, len(set))
	for i, a := range set {
		if b.cols[i] = schema.ColumnIndex(a.Column); b.cols[i] < 0 {
			return nil, errf("unknown column %q in UPDATE %s", a.Column, name)
		}
		b.set[i] = bd.expr(a.Value)
	}
	b.where = bd.expr(where)
	b.conj = conjuncts(nil, b.where, b.srcs[0])
	b.like, b.likeParams = bd.like, bd.likeParams
	s.keep(slot, b)
	return b, nil
}

// node hands out one zeroed node. Nodes come from chunks that double in
// size, so binding a tree of n nodes allocates O(log n) times.
func (bd *binder) node() *bexpr {
	if len(bd.free) == 0 {
		bd.free = make([]bexpr, max(8, bd.made))
		bd.made += len(bd.free)
	}
	n := &bd.free[0]
	bd.free = bd.free[1:]
	return n
}

// expr binds one expression tree; nil binds to nil.
func (bd *binder) expr(x *sqlparser.Expr) *bexpr {
	if x == nil {
		return nil
	}
	n := bd.node()
	n.x, n.slot = x, -1
	n.l = bd.expr(x.Left)
	n.r = bd.expr(x.Right)
	switch x.Kind {
	case sqlparser.ExprLiteral:
		n.op = opLit
	case sqlparser.ExprParam:
		n.op = opParam
	case sqlparser.ExprColumn:
		n.op, n.slot = opColumn, int32(bd.column(x))
		if n.slot < 0 {
			n.op = opNoColumn
		}
	case sqlparser.ExprStar:
		n.op = opStar
	case sqlparser.ExprUnary:
		n.op = unaryOps[x.Op]
	case sqlparser.ExprBinary:
		bo := binaryOps[x.Op]
		n.op, n.cmp = bo.op, bo.cmp
		bd.leaf(n)
	case sqlparser.ExprFunc:
		n.args = bd.exprs(x.Args)
		n.op, n.fn = opFunc, funcIndex[x.Func]
		if sqlparser.IsAggregate(x.Func) {
			n.op, n.fn, n.slot = opAgg, aggKind(x), int32(slices.Index(bd.aggs, x))
		}
	case sqlparser.ExprIn:
		n.op, n.args = opIn, bd.exprs(x.List)
	case sqlparser.ExprBetween:
		n.op, n.args = opBetween, []*bexpr{bd.expr(x.Low), bd.expr(x.High)}
	case sqlparser.ExprIsNull:
		n.op = opIsNull
	}
	return n
}

// unaryOps and binaryOps resolve an operator: its opcode and, for a
// comparison, the outcomes of sqlval.Compare that make it true. An operator
// neither lists binds to opInvalid.
var unaryOps = map[string]opcode{"-": opNeg, "NOT": opNot}

var binaryOps = map[string]struct {
	op  opcode
	cmp uint8
}{
	"AND": {op: opAnd}, "OR": {op: opOr}, "LIKE": {op: opLike}, "||": {op: opConcat},
	"+": {op: opAdd}, "-": {op: opSub}, "*": {op: opMul}, "/": {op: opDiv}, "%": {op: opMod},
	"=": {opCmp, cmpEqual}, "<>": {opCmp, cmpLess | cmpGreater}, "<": {opCmp, cmpLess},
	"<=": {opCmp, cmpLess | cmpEqual}, ">": {opCmp, cmpGreater}, ">=": {opCmp, cmpGreater | cmpEqual},
}

// funcIndex maps each built-in's names to its index in builtins; any other
// name is fnUnknown.
var funcIndex = map[string]uint8{"CURRENT_TIMESTAMP": fnNow, "CEILING": fnCeil, "IFNULL": fnCoalesce, "SUBSTRING": fnSubstr}

func init() {
	for i := fnUnknown + 1; int(i) < len(builtins); i++ {
		funcIndex[builtins[i].name] = i
	}
}

// leaf turns n, a comparison or LIKE, into a leaf when it compares a
// resolved column with a literal or a parameter (either way round for a
// comparison): the leaf reads the column's slot and its constant, r, with
// no further evaluation, and a LIKE leaf keeps a matcher in the binding.
func (bd *binder) leaf(n *bexpr) {
	col, c, cmp := n.l, n.r, n.cmp
	if n.op == opCmp && col.op != opColumn {
		col, c, cmp = c, col, flipCmp(cmp)
	}
	switch {
	case n.op != opCmp && n.op != opLike, col.op != opColumn, !isConst(c):
		return
	case n.op == opCmp:
		n.op, n.cmp = opCmpConst, cmp
	case len(bd.like) > math.MaxUint8:
		return // the leaf's fn cannot number its matcher
	default:
		var m likeMatcher
		if c.op == opLit && !c.x.Lit.IsNull() {
			m, bd.needle = compileLike(c.x.Lit.AsString(), bd.needle)
		} else if c.op == opParam {
			bd.likeParams = append(bd.likeParams, n)
		}
		n.op, n.fn = opLikeConst, uint8(len(bd.like))
		bd.like = append(bd.like, m)
	}
	n.l, n.r, n.slot = col, c, col.slot
}

func (bd *binder) exprs(xs []*sqlparser.Expr) []*bexpr {
	if len(xs) == 0 {
		return nil
	}
	out := make([]*bexpr, len(xs))
	for i, x := range xs {
		out[i] = bd.expr(x)
	}
	return out
}

// column resolves a column reference to its position in the combined row,
// or -1. A bare name is the first FROM entry's column of that name. A
// qualified one is the last entry whose alias (its table name when it has
// none) is the qualifier, else the first entry of that table name.
func (bd *binder) column(x *sqlparser.Expr) int {
	byAlias, first := -1, -1
	for _, src := range bd.srcs {
		j := slices.IndexFunc(src.t.schema.Columns, func(c Column) bool { return c.Name == x.Column })
		if j < 0 {
			continue
		}
		p := src.offset + j
		switch {
		case x.Table == "":
			if first < 0 {
				first = p
			}
		case src.alias == x.Table:
			byAlias = p
		case src.name == x.Table && first < 0:
			first = p
		}
	}
	if byAlias >= 0 {
		return byAlias
	}
	return first
}

// isConst reports whether n is a literal or a parameter, which reads as
// one (Expr.LitValue): a leaf's constant, an index probe's operand.
func isConst(n *bexpr) bool { return n.op == opLit || n.op == opParam }

// conjuncts appends to out the top-level AND conjuncts of where that an
// index of src could answer: a leaf comparing a column of src by =, <, <=,
// > or >=, and col IN (v, ...) and col BETWEEN v AND w, each v a literal or
// a parameter.
func conjuncts(out []conjunct, where *bexpr, src srcTable) []conjunct {
	if where == nil {
		return out
	}
	if where.op == opAnd {
		return conjuncts(conjuncts(out, where.l, src), where.r, src)
	}
	switch {
	case where.op == opCmpConst && where.cmp != cmpLess|cmpGreater:
	case where.op == opIn && !where.x.Not && !slices.ContainsFunc(where.args, func(n *bexpr) bool { return !isConst(n) }):
	case where.op == opBetween && !where.x.Not && isConst(where.args[0]) && isConst(where.args[1]):
	default:
		return out
	}
	ci := int(where.l.slot) - src.offset
	if where.l.op != opColumn || ci < 0 || ci >= len(src.t.schema.Columns) {
		return out
	}
	return append(out, conjunct{n: where, col: ci, ix: src.t.indexOn(ci)})
}

// joinProbe inspects a bound ON clause for an equality of a column of the
// new table src with a column of a table joined before it, where an index
// covers the new table's column, returning that index, the other column's
// position in the combined row and the indexed column. ON's columns are
// resolved as evaluating ON reads them, so a probe answers exactly ON.
func joinProbe(on *bexpr, src srcTable) (ix *index, probe, build int) {
	if on == nil || on.op != opCmp || on.cmp != cmpEqual || on.l.op != opColumn || on.r.op != opColumn {
		return nil, 0, 0
	}
	for _, side := range [2][2]*bexpr{{on.r, on.l}, {on.l, on.r}} {
		bc, p := int(side[0].slot)-src.offset, int(side[1].slot)
		if bc >= 0 && bc < len(src.t.schema.Columns) && p < src.offset {
			if ix := src.t.indexOn(bc); ix != nil {
				return ix, p, bc
			}
		}
	}
	return nil, 0, 0
}

// outputColumns resolves the select list against the FROM entries: the
// result's column names and, for each star item, the span of the combined
// row it copies (nil when the list has no star). Projection copies by the
// same spans, so every row has one value per column.
func outputColumns(sel *sqlparser.Select, srcs []srcTable) ([]string, []span, error) {
	var stars []span
	k := 0
	for i, it := range sel.Items {
		if !it.Star {
			k++
			continue
		}
		if stars == nil {
			stars = make([]span, len(sel.Items))
		}
		sp, err := starSpan(it, srcs)
		if err != nil {
			return nil, nil, err
		}
		stars[i] = sp
		k += sp.hi - sp.lo
	}
	out := make([]string, 0, k)
	for i, it := range sel.Items {
		if !it.Star {
			out = append(out, itemName(it, i))
			continue
		}
		for _, src := range srcs {
			for j, c := range src.t.schema.Columns {
				if p := src.offset + j; p >= stars[i].lo && p < stars[i].hi {
					out = append(out, c.Name)
				}
			}
		}
	}
	return out, stars, nil
}

// defaults binds a schema's column defaults, which see no columns.
func defaults(schema *Schema) []*bexpr {
	out := make([]*bexpr, len(schema.Columns))
	var bd binder
	for i := range schema.Columns {
		out[i] = bd.expr(schema.Columns[i].Default)
	}
	return out
}
