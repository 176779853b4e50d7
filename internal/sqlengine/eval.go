package sqlengine

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"cjdbc/internal/sqlval"
)

// env is the evaluation environment of one (joined) row. Expressions are
// bound (bexpr): a column reads its slot of row, an aggregate call its slot
// of aggs, a LIKE leaf its matcher in like.
type env struct {
	row    []sqlval.Value // the combined row
	aggs   []sqlval.Value // one group's aggregate values, grouped queries only
	params []sqlval.Value // the statement's parameter vector
	like   []likeMatcher  // the execution's LIKE matchers (Session.likes)
}

// opcode is what eval does with a node. The binder resolves it once from
// the parsed node's kind, operator and function name, so evaluating a row
// compares no strings.
type opcode uint8

const (
	opInvalid   opcode = iota // an operator or kind eval does not know
	opLit                     // a literal
	opParam                   // a parameter
	opColumn                  // a resolved column: row[slot]
	opNoColumn                // a column no FROM entry has
	opStar                    // '*' outside COUNT(*)
	opNeg                     // unary -
	opNot                     // NOT
	opAnd                     // AND, Kleene
	opOr                      // OR, Kleene
	opAdd                     // +
	opSub                     // -
	opMul                     // *
	opDiv                     // /
	opMod                     // %
	opConcat                  // ||
	opCmp                     // a comparison: its outcomes are cmp
	opCmpConst                // a comparison of column slot with the literal or parameter r
	opLike                    // [NOT] LIKE
	opLikeConst               // column slot [NOT] LIKE the literal or parameter r, matcher like[fn]
	opIn                      // [NOT] IN (args)
	opBetween                 // [NOT] BETWEEN args[0] AND args[1]
	opIsNull                  // IS [NOT] NULL
	opFunc                    // a call of builtins[fn]
	opAgg                     // an aggregate call, of kind fn: aggs[slot]
)

// The outcomes of sqlval.Compare, as bits: outcome c is cmpLess<<(c+1).
const (
	cmpLess uint8 = 1 << iota
	cmpEqual
	cmpGreater
)

// flipCmp is the outcome set of a comparison with its operands swapped.
func flipCmp(m uint8) uint8 { return m&cmpEqual | (m&cmpLess)<<2 | (m&cmpGreater)>>2 }

// eval evaluates a bound expression tree against the environment.
// Comparisons involving NULL yield NULL (three-valued logic); AND/OR follow
// Kleene semantics.
func (ev *env) eval(e *bexpr) (sqlval.Value, error) {
	switch e.op {
	case opColumn:
		return ev.row[e.slot], nil
	case opLit:
		return e.x.Lit, nil
	case opParam:
		if i := e.x.ParamIdx; i < len(ev.params) {
			return ev.params[i], nil
		}
		return sqlval.Null, errf("unbound parameter ?%d", e.x.ParamIdx+1)
	case opCmpConst, opLikeConst:
		c := &e.r.x.Lit
		if i := e.r.x.ParamIdx; e.r.op == opParam {
			if i >= len(ev.params) {
				return ev.eval(e.r) // reports the unbound parameter
			}
			c = &ev.params[i]
		}
		return ev.test(e, &ev.row[e.slot], c), nil
	case opAnd, opOr:
		or := e.op == opOr
		l, err := ev.eval(e.l)
		if err != nil {
			return sqlval.Null, err
		}
		if decides(l, or) {
			return sqlval.Bool(or), nil
		}
		r, err := ev.eval(e.r)
		if err != nil {
			return sqlval.Null, err
		}
		if decides(r, or) {
			return sqlval.Bool(or), nil
		}
		return undecided(l, r, or), nil
	case opNeg, opNot:
		return ev.evalUnary(e)
	case opAdd, opSub, opMul, opDiv, opMod, opConcat, opCmp, opLike:
		return ev.evalBinary(e)
	case opIn:
		return ev.evalIn(e)
	case opBetween:
		return ev.evalBetween(e)
	case opIsNull:
		v, err := ev.eval(e.l)
		if err != nil {
			return sqlval.Null, err
		}
		return sqlval.Bool(v.IsNull() != e.x.Not), nil
	case opFunc:
		return ev.evalFunc(e)
	case opAgg:
		if e.slot >= 0 && ev.aggs != nil {
			return ev.aggs[e.slot], nil
		}
		return sqlval.Null, errf("aggregate %s outside grouped query", e.x.Func)
	case opNoColumn:
		key := e.x.Column
		if e.x.Table != "" {
			key = e.x.Table + "." + e.x.Column
		}
		return sqlval.Null, errf("unknown column %q", key)
	case opStar:
		return sqlval.Null, errf("'*' outside COUNT(*)")
	}
	return sqlval.Null, errf("unknown operator %q", e.x.Op) // opInvalid: no parsed tree holds one
}

// holds reports whether the condition c — a WHERE or ON clause, nil for
// none — is TRUE on row, which ev then holds.
func (ev *env) holds(c *bexpr, row []sqlval.Value) (bool, error) {
	ev.row = row
	if c == nil {
		return true, nil
	}
	m, err := ev.eval(c)
	return m.AsBool(), err
}

// test evaluates the leaf n — opCmpConst or opLikeConst — on its column's
// value v and its constant c.
func (ev *env) test(n *bexpr, v, c *sqlval.Value) sqlval.Value {
	if v.IsNull() || c.IsNull() {
		return sqlval.Null
	}
	if n.op == opLikeConst {
		s := v.S
		if v.K != sqlval.KindString && v.K != sqlval.KindBytes {
			s = v.AsString()
		}
		return sqlval.Bool(ev.like[n.fn].match(s) != n.x.Not)
	}
	return sqlval.Bool(n.cmp&(cmpLess<<(sqlval.Compare(*v, *c)+1)) != 0)
}

// decides reports whether one operand decides OR (a TRUE) or AND (a
// FALSE, or=false) whatever the other is.
func decides(v sqlval.Value, or bool) bool { return !v.IsNull() && v.AsBool() == or }

// undecided is OR's or AND's value when neither operand decides it: NULL
// when either is NULL.
func undecided(l, r sqlval.Value, or bool) sqlval.Value {
	if l.IsNull() || r.IsNull() {
		return sqlval.Null
	}
	return sqlval.Bool(!or)
}

func (ev *env) evalUnary(e *bexpr) (sqlval.Value, error) {
	v, err := ev.eval(e.l)
	if err != nil || v.IsNull() {
		return sqlval.Null, err
	}
	if e.op == opNot {
		return sqlval.Bool(!v.AsBool()), nil
	}
	if v.K == sqlval.KindInt {
		return sqlval.Int(-v.I), nil
	}
	f, err := v.AsFloat()
	if err != nil {
		return sqlval.Null, err
	}
	return sqlval.Float(-f), nil
}

func (ev *env) evalBinary(e *bexpr) (sqlval.Value, error) {
	l, err := ev.eval(e.l)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := ev.eval(e.r)
	if err != nil {
		return sqlval.Null, err
	}
	switch e.op {
	case opAdd:
		return sqlval.Add(l, r)
	case opSub:
		return sqlval.Sub(l, r)
	case opMul:
		return sqlval.Mul(l, r)
	case opDiv:
		return sqlval.Div(l, r)
	case opMod:
		return sqlval.Mod(l, r)
	}
	if l.IsNull() || r.IsNull() {
		return sqlval.Null, nil
	}
	switch e.op {
	case opConcat:
		return sqlval.String_(l.AsString() + r.AsString()), nil
	case opCmp:
		return sqlval.Bool(e.cmp&(cmpLess<<(sqlval.Compare(l, r)+1)) != 0), nil
	}
	return sqlval.Bool(likeMatch(r.AsString(), l.AsString()) != e.x.Not), nil
}

func (ev *env) evalIn(e *bexpr) (sqlval.Value, error) {
	v, err := ev.eval(e.l)
	if err != nil {
		return sqlval.Null, err
	}
	if v.IsNull() {
		return sqlval.Null, nil
	}
	sawNull := false
	for _, item := range e.args {
		iv, err := ev.eval(item)
		if err != nil {
			return sqlval.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if sqlval.Equal(v, iv) {
			return sqlval.Bool(!e.x.Not), nil
		}
	}
	if sawNull {
		return sqlval.Null, nil
	}
	return sqlval.Bool(e.x.Not), nil
}

func (ev *env) evalBetween(e *bexpr) (sqlval.Value, error) {
	v, err := ev.eval(e.l)
	if err != nil {
		return sqlval.Null, err
	}
	lo, err := ev.eval(e.args[0])
	if err != nil {
		return sqlval.Null, err
	}
	hi, err := ev.eval(e.args[1])
	if err != nil {
		return sqlval.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqlval.Null, nil
	}
	in := sqlval.Compare(v, lo) >= 0 && sqlval.Compare(v, hi) <= 0
	return sqlval.Bool(in != e.x.Not), nil
}

// builtin is one scalar function: its name, how many arguments it takes
// (max < 0: any number) and whether a NULL argument makes it NULL.
type builtin struct {
	name     string
	min, max int
	strict   bool
}

// The built-ins' indexes in builtins; a call of any other name binds to
// fnUnknown.
const (
	fnUnknown uint8 = iota
	fnNow
	fnCurrentDate
	fnRand
	fnLength
	fnUpper
	fnLower
	fnAbs
	fnFloor
	fnCeil
	fnRound
	fnCoalesce
	fnNullif
	fnConcat
	fnSubstr
	fnMod
)

var builtins = [...]builtin{
	fnNow:         {"NOW", 0, -1, false},
	fnCurrentDate: {"CURRENT_DATE", 0, -1, false},
	fnRand:        {"RAND", 0, -1, false},
	fnLength:      {"LENGTH", 1, 1, true},
	fnUpper:       {"UPPER", 1, 1, true},
	fnLower:       {"LOWER", 1, 1, true},
	fnAbs:         {"ABS", 1, 1, true},
	fnFloor:       {"FLOOR", 1, 1, true},
	fnCeil:        {"CEIL", 1, 1, true},
	fnRound:       {"ROUND", 1, 1, true},
	fnCoalesce:    {"COALESCE", 0, -1, false},
	fnNullif:      {"NULLIF", 2, 2, false},
	fnConcat:      {"CONCAT", 0, -1, true},
	fnSubstr:      {"SUBSTR", 2, 3, false},
	fnMod:         {"MOD", 2, 2, false},
}

// evalFunc calls a built-in. Its arguments evaluate first, so their errors
// come before an unknown name's or a wrong argument count's.
func (ev *env) evalFunc(e *bexpr) (sqlval.Value, error) {
	// Every built-in but the variadic ones takes at most three arguments:
	// they evaluate into an array on the stack, so a function applied once
	// per row allocates no argument slice.
	var buf [4]sqlval.Value
	args := buf[:0]
	if len(e.args) > len(buf) {
		args = make([]sqlval.Value, 0, len(e.args))
	}
	for _, a := range e.args {
		v, err := ev.eval(a)
		if err != nil {
			return sqlval.Null, err
		}
		args = append(args, v)
	}
	if e.fn == fnUnknown {
		return sqlval.Null, errf("unknown function %s", e.x.Func)
	}
	fn := &builtins[e.fn]
	if n := len(args); fn.max >= 0 && (n < fn.min || n > fn.max) {
		if fn.min == fn.max {
			return sqlval.Null, errf("%s expects %d argument(s), got %d", e.x.Func, fn.min, n)
		}
		return sqlval.Null, errf("%s expects %d or %d arguments", fn.name, fn.min, fn.max)
	}
	if fn.strict && slices.ContainsFunc(args, sqlval.Value.IsNull) {
		return sqlval.Null, nil
	}
	switch e.fn {
	case fnNow:
		return sqlval.Time(time.Now()), nil
	case fnCurrentDate:
		// Midnight UTC, as sqlparser.FillSlots fills a write's slot.
		return sqlval.Time(time.Now().Truncate(24 * time.Hour)), nil
	case fnRand:
		return sqlval.Float(rand.Float64()), nil
	case fnLength:
		return sqlval.Int(int64(len(args[0].AsString()))), nil
	case fnUpper:
		return sqlval.String_(strings.ToUpper(args[0].AsString())), nil
	case fnLower:
		return sqlval.String_(strings.ToLower(args[0].AsString())), nil
	case fnAbs, fnFloor, fnCeil, fnRound:
		if e.fn == fnAbs && args[0].K == sqlval.KindInt {
			if args[0].I < 0 {
				return sqlval.Int(-args[0].I), nil
			}
			return args[0], nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return sqlval.Null, err
		}
		switch e.fn {
		case fnAbs:
			return sqlval.Float(math.Abs(f)), nil
		case fnFloor:
			f = math.Floor(f)
		case fnCeil:
			f = math.Ceil(f)
		default:
			f = math.Round(f)
		}
		return sqlval.Int(int64(f)), nil
	case fnCoalesce:
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqlval.Null, nil
	case fnNullif:
		if !args[0].IsNull() && !args[1].IsNull() && sqlval.Equal(args[0], args[1]) {
			return sqlval.Null, nil
		}
		return args[0], nil
	case fnConcat:
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.AsString())
		}
		return sqlval.String_(b.String()), nil
	case fnSubstr:
		return substr(args)
	}
	return sqlval.Mod(args[0], args[1]) // fnMod
}

// substr is SUBSTR(s, start[, n]): NULL when s is; start counts bytes from
// 1, and anything before 1 is 1.
func substr(args []sqlval.Value) (sqlval.Value, error) {
	if args[0].IsNull() {
		return sqlval.Null, nil
	}
	s := args[0].AsString()
	start, err := args[1].AsInt()
	if err != nil {
		return sqlval.Null, err
	}
	if start < 1 {
		start = 1
	}
	if int(start) > len(s) {
		return sqlval.String_(""), nil
	}
	out := s[start-1:]
	if len(args) == 3 {
		n, err := args[2].AsInt()
		if err != nil {
			return sqlval.Null, err
		}
		if n < 0 {
			n = 0
		}
		if int(n) < len(out) {
			out = out[:n]
		}
	}
	return sqlval.String_(out), nil
}
