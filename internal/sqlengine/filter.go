package sqlengine

import (
	"unicode/utf8"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// filter is a WHERE clause compiled for one execution, once the statement's
// parameters are known. A LIKE of a column with a literal or parameter
// pattern becomes a matcher classified once from the folded pattern, and a
// comparison of a column with a literal or parameter compares the row's
// slot with the constant; every other expression, and every AND and OR
// around these, evaluates exactly as env.eval does: the same tri-state
// values, the same left-to-right short-circuit, the same errors. A compiled
// leaf cannot fail. The session keeps one filter and reuses its nodes and
// needle bytes, so compiling allocates nothing once they have grown.
type filter struct {
	where  *bexpr
	nodes  []fnode
	needle []byte // the LIKE needles' folded bytes
	root   int32  // -1: nothing is compiled, match evaluates where
	ev     env
}

type fkind uint8

const (
	fEval fkind = iota // any other expression: env.eval
	fAnd
	fOr
	fLike // col [NOT] LIKE constant
	fCmp  // col op constant
)

// fnode is one node of a compiled WHERE.
type fnode struct {
	kind fkind
	x    *bexpr       // fEval: the expression
	l, r int32        // fAnd, fOr: the operands
	slot int          // fLike, fCmp: the column's position in the combined row
	cmp  uint8        // fCmp: the operator as a set of outcomes (cmpLess, cmpEqual, cmpGreater)
	not  bool         // fLike: NOT LIKE
	val  sqlval.Value // fLike: the pattern, fCmp: the constant
	like likeMatcher  // fLike, unless the pattern is NULL
}

// reset readies f for where under params. With compile set it compiles
// where when some leaf in its AND/OR tree compiles; otherwise, or when
// none does, match leaves where to env.eval.
func (f *filter) reset(where *bexpr, params []sqlval.Value, compile bool) {
	f.where, f.ev.params = where, params
	f.nodes, f.needle, f.root = f.nodes[:0], f.needle[:0], -1
	if compile && where != nil && hasLeaf(where, params) {
		f.root = f.compile(where, params)
	}
}

// release drops what f references, keeping its storage.
func (f *filter) release() {
	f.nodes, f.needle = truncated(f.nodes), truncated(f.needle)
	f.where, f.ev = nil, env{}
}

// hasLeaf reports whether e's AND/OR tree holds a leaf that compiles.
func hasLeaf(e *bexpr, params []sqlval.Value) bool {
	if x := e.x; x.Kind == sqlparser.ExprBinary && (x.Op == "AND" || x.Op == "OR") {
		return hasLeaf(e.l, params) || hasLeaf(e.r, params)
	}
	_, _, _, ok := leafOf(e, params)
	return ok
}

// leafOf reports whether e compiles to a leaf: col LIKE constant, or a
// comparison of a column with a constant either way round, where the
// column resolves and the constant is a literal or a bound parameter. It
// returns the column's slot, the operator with the column on the left and
// the constant.
func leafOf(e *bexpr, params []sqlval.Value) (slot int, op string, val sqlval.Value, ok bool) {
	x := e.x
	if x.Kind != sqlparser.ExprBinary {
		return 0, "", sqlval.Null, false
	}
	col, c, op := e.l, e.r, x.Op
	switch op {
	case "LIKE":
	case "=", "<>", "<", "<=", ">", ">=":
		if col.x.Kind != sqlparser.ExprColumn {
			col, c, op = c, col, flipped[op]
		}
	default:
		return 0, "", sqlval.Null, false
	}
	if col.x.Kind != sqlparser.ExprColumn || col.slot < 0 || !isOperand(c.x) {
		return 0, "", sqlval.Null, false
	}
	val, ok = c.x.LitValue(params)
	return col.slot, op, val, ok
}

// cmpOutcomes is the set of the outcomes of sqlval.Compare that make the
// comparison op true.
func cmpOutcomes(op string) uint8 {
	switch op {
	case "=":
		return cmpEqual
	case "<>":
		return cmpLess | cmpGreater
	case "<":
		return cmpLess
	case "<=":
		return cmpLess | cmpEqual
	case ">":
		return cmpGreater
	}
	return cmpGreater | cmpEqual // >=
}

const (
	cmpLess uint8 = 1 << iota
	cmpEqual
	cmpGreater
)

// compile appends e's nodes and returns the index of its root.
func (f *filter) compile(e *bexpr, params []sqlval.Value) int32 {
	n := fnode{kind: fEval, x: e}
	if x := e.x; x.Kind == sqlparser.ExprBinary && (x.Op == "AND" || x.Op == "OR") {
		n.kind = fAnd
		if x.Op == "OR" {
			n.kind = fOr
		}
		n.l = f.compile(e.l, params)
		n.r = f.compile(e.r, params)
	} else if slot, op, val, ok := leafOf(e, params); ok {
		n.slot, n.val = slot, val
		n.kind, n.cmp = fCmp, cmpOutcomes(op)
		if op == "LIKE" {
			n.kind, n.not = fLike, x.Not
			if !val.IsNull() {
				n.like, f.needle = compileLike(val.AsString(), f.needle)
			}
		}
	}
	f.nodes = append(f.nodes, n)
	return int32(len(f.nodes) - 1)
}

// match reports whether row satisfies WHERE.
func (f *filter) match(row []sqlval.Value) (bool, error) {
	var m sqlval.Value
	var err error
	if f.root >= 0 {
		m, err = f.eval(f.root, row)
	} else {
		f.ev.row = row
		m, err = f.ev.eval(f.where)
	}
	return m.AsBool(), err
}

// eval evaluates node i on row as env.eval evaluates the node's
// expression.
func (f *filter) eval(i int32, row []sqlval.Value) (sqlval.Value, error) {
	n := &f.nodes[i]
	switch n.kind {
	case fLike, fCmp:
		return n.test(row[n.slot]), nil
	case fAnd, fOr:
		or := n.kind == fOr
		l, err := f.eval(n.l, row)
		if err != nil {
			return sqlval.Null, err
		}
		if decides(l, or) {
			return sqlval.Bool(or), nil
		}
		r, err := f.eval(n.r, row)
		if err != nil {
			return sqlval.Null, err
		}
		if decides(r, or) {
			return sqlval.Bool(or), nil
		}
		return undecided(l, r, or), nil
	}
	f.ev.row = row
	return f.ev.eval(n.x)
}

// test evaluates a compiled leaf on its column's value v.
func (n *fnode) test(v sqlval.Value) sqlval.Value {
	if v.IsNull() || n.val.IsNull() {
		return sqlval.Null
	}
	if n.kind == fLike {
		s := v.S
		if v.K != sqlval.KindString && v.K != sqlval.KindBytes {
			s = v.AsString()
		}
		return sqlval.Bool(n.like.match(s) != n.not)
	}
	return sqlval.Bool(n.cmp&(cmpLess<<(sqlval.Compare(v, n.val)+1)) != 0)
}

// stageLeaf returns a compiled leaf over the columns [lo, hi) of the
// combined row alone that decides WHERE whenever it is FALSE: a top-level
// AND conjunct, first or preceded only by compiled leaves, which cannot
// fail. When such a leaf is FALSE the conjuncts before it evaluated without
// error, so WHERE is FALSE without error. It returns -1 when there is none.
func (f *filter) stageLeaf(lo, hi int) int32 {
	if f.root < 0 {
		return -1
	}
	leaf, _ := f.firstLeaf(f.root, lo, hi)
	return leaf
}

// firstLeaf searches node i's AND tree left to right; stop reports that a
// node which may fail came first.
func (f *filter) firstLeaf(i int32, lo, hi int) (leaf int32, stop bool) {
	n := &f.nodes[i]
	switch n.kind {
	case fAnd:
		if leaf, stop = f.firstLeaf(n.l, lo, hi); leaf >= 0 || stop {
			return leaf, stop
		}
		return f.firstLeaf(n.r, lo, hi)
	case fLike, fCmp:
		if n.slot >= lo && n.slot < hi {
			return i, false
		}
		return -1, false
	}
	return -1, true
}

// likeKind classifies a LIKE pattern.
type likeKind uint8

const (
	likeExact    likeKind = iota // no wildcard
	likePrefix                   // needle followed by '%'s
	likeContains                 // '%'s, needle, '%'s
	likeOther                    // anything else: likeMatch
)

// likeMatcher is a LIKE pattern classified once. An exact, prefix or
// contains pattern keeps its literal runes folded through foldRune, as
// UTF-8 bytes; any other pattern keeps its text for likeMatch.
type likeMatcher struct {
	kind    likeKind
	needle  []byte
	pattern string
}

// compileLike classifies pattern, appending its folded needle to buf; it
// returns the matcher and the extended buffer.
func compileLike(pattern string, buf []byte) (likeMatcher, []byte) {
	start := len(buf)
	lead, trail := 0, 0 // '%'s before the first other rune, and since the last one
	for i := 0; i < len(pattern); {
		r, w := foldRune(pattern, i)
		i += w
		switch {
		case r == '_', r != '%' && trail > 0:
			return likeMatcher{kind: likeOther, pattern: pattern}, buf[:start]
		case r == '%' && len(buf) == start:
			lead++
		case r == '%':
			trail++
		default:
			buf = utf8.AppendRune(buf, r)
		}
	}
	m := likeMatcher{needle: buf[start:len(buf):len(buf)]}
	switch {
	case lead == 0 && trail == 0:
		m.kind = likeExact
	case lead == 0:
		m.kind = likePrefix
	case trail > 0 || len(m.needle) == 0:
		m.kind = likeContains
	default: // a leading '%' only
		return likeMatcher{kind: likeOther, pattern: pattern}, buf[:start]
	}
	return m, buf
}

// match reports whether s matches the pattern, as likeMatch does. A
// haystack of ASCII bytes folds byte by byte; any other is folded rune by
// rune, since a non-ASCII rune may fold to an ASCII one (KELVIN SIGN to k).
func (m *likeMatcher) match(s string) bool {
	n := m.needle
	switch {
	case m.kind == likeOther:
		return likeMatch(m.pattern, s)
	case !isASCII(s):
		return m.matchRunes(s)
	case m.kind == likeExact:
		return len(s) == len(n) && equalFoldASCII(s, n)
	case m.kind == likePrefix:
		return len(s) >= len(n) && equalFoldASCII(s[:len(n)], n)
	}
	if len(n) == 0 {
		return true
	}
	// A start is tried in full only when its first and last bytes match.
	first, last := n[0], n[len(n)-1]
	for i, end := 0, len(n)-1; end < len(s); i, end = i+1, end+1 {
		if lowerASCII(s[i]) == first && lowerASCII(s[end]) == last && equalFoldASCII(s[i+1:end+1], n[1:]) {
			return true
		}
	}
	return false
}

// lowerASCII lower-cases an ASCII letter.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// matchRunes is match for any haystack.
func (m *likeMatcher) matchRunes(s string) bool {
	switch m.kind {
	case likeExact:
		end, ok := foldPrefix(s, 0, m.needle)
		return ok && end == len(s)
	case likePrefix:
		_, ok := foldPrefix(s, 0, m.needle)
		return ok
	}
	for i := 0; ; {
		if _, ok := foldPrefix(s, i, m.needle); ok {
			return true
		}
		if i == len(s) {
			return false
		}
		_, w := foldRune(s, i)
		i += w
	}
}

// foldPrefix reports whether the runes of s from byte i on, folded, begin
// with needle's, and the byte offset in s after them.
func foldPrefix(s string, i int, needle []byte) (int, bool) {
	for j := 0; j < len(needle); {
		if i == len(s) {
			return i, false
		}
		sr, sw := foldRune(s, i)
		nr, nw := utf8.DecodeRune(needle[j:])
		if sr != nr {
			return i, false
		}
		i, j = i+sw, j+nw
	}
	return i, true
}

// isASCII reports whether s is all ASCII bytes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// equalFoldASCII reports whether the ASCII string s, lower-cased, equals
// needle, which is as long.
func equalFoldASCII(s string, needle []byte) bool {
	for i := 0; i < len(s); i++ {
		if lowerASCII(s[i]) != needle[i] {
			return false
		}
	}
	return true
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

// build scans t at rv and keeps the rows on which leaf, a compiled leaf
// over t's columns (offset off in the combined row), is TRUE or NULL,
// keyed by column col.
func (bs *buildSide) build(t *table, rv readView, f *filter, leaf int32, off, col int) {
	n := &f.nodes[leaf]
	size := t.scanLen()
	bs.entries = make([]buildEntry, 0, size)
	bs.chains = make([]buildChain, 0, size)
	if ct := t.schema.Columns[col].Type; ct == sqlval.KindInt || ct == sqlval.KindBool {
		bs.keys.ints = make(map[int64]int32, size)
	}
	t.scanSnap(rv, func(row []sqlval.Value) bool {
		if m := n.test(row[n.slot-off]); !m.IsNull() && !m.AsBool() {
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
