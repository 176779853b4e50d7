package sqlengine

import (
	"math"
	"math/rand"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// env is the evaluation environment of one (joined) row. Expressions are
// bound (bexpr): a column reads its slot of row, an aggregate call its slot
// of aggs.
type env struct {
	row    []sqlval.Value // the combined row
	aggs   []sqlval.Value // one group's aggregate values, grouped queries only
	params []sqlval.Value // the statement's parameter vector
}

// eval evaluates a bound expression tree against the environment.
// Comparisons involving NULL yield NULL (three-valued logic); AND/OR follow
// Kleene semantics.
func (ev *env) eval(e *bexpr) (sqlval.Value, error) {
	x := e.x
	switch x.Kind {
	case sqlparser.ExprLiteral, sqlparser.ExprParam:
		if v, ok := x.LitValue(ev.params); ok {
			return v, nil
		}
		return sqlval.Null, errf("unbound parameter ?%d", x.ParamIdx+1)
	case sqlparser.ExprColumn:
		if e.slot < 0 {
			key := x.Column
			if x.Table != "" {
				key = x.Table + "." + x.Column
			}
			return sqlval.Null, errf("unknown column %q", key)
		}
		return ev.row[e.slot], nil
	case sqlparser.ExprStar:
		return sqlval.Null, errf("'*' outside COUNT(*)")
	case sqlparser.ExprUnary:
		return ev.evalUnary(e)
	case sqlparser.ExprBinary:
		return ev.evalBinary(e)
	case sqlparser.ExprFunc:
		if e.slot >= 0 && ev.aggs != nil {
			return ev.aggs[e.slot], nil
		}
		return ev.evalFunc(e)
	case sqlparser.ExprIn:
		return ev.evalIn(e)
	case sqlparser.ExprBetween:
		return ev.evalBetween(e)
	case sqlparser.ExprIsNull:
		v, err := ev.eval(e.l)
		if err != nil {
			return sqlval.Null, err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return sqlval.Bool(res), nil
	}
	return sqlval.Null, errf("cannot evaluate expression kind %d", x.Kind)
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

// operand is eval with a resolved column read in line, for the
// expressions evaluated once per row that are usually plain columns: a
// GROUP BY key and an aggregate's argument.
func (ev *env) operand(e *bexpr) (sqlval.Value, error) {
	if e.x.Kind == sqlparser.ExprColumn && e.slot >= 0 {
		return ev.row[e.slot], nil
	}
	return ev.eval(e)
}

func (ev *env) evalUnary(e *bexpr) (sqlval.Value, error) {
	v, err := ev.eval(e.l)
	if err != nil {
		return sqlval.Null, err
	}
	switch e.x.Op {
	case "-":
		if v.IsNull() {
			return sqlval.Null, nil
		}
		if v.K == sqlval.KindInt {
			return sqlval.Int(-v.I), nil
		}
		f, err := v.AsFloat()
		if err != nil {
			return sqlval.Null, err
		}
		return sqlval.Float(-f), nil
	case "NOT":
		if v.IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.Bool(!v.AsBool()), nil
	}
	return sqlval.Null, errf("unknown unary operator %q", e.x.Op)
}

func (ev *env) evalBinary(e *bexpr) (sqlval.Value, error) {
	// AND/OR evaluate lazily with Kleene semantics.
	op := e.x.Op
	if op == "AND" || op == "OR" {
		or := op == "OR"
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
	}
	l, err := ev.eval(e.l)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := ev.eval(e.r)
	if err != nil {
		return sqlval.Null, err
	}
	switch op {
	case "+", "-", "*", "/", "%":
		switch op {
		case "+":
			return sqlval.Add(l, r)
		case "-":
			return sqlval.Sub(l, r)
		case "*":
			return sqlval.Mul(l, r)
		case "/":
			return sqlval.Div(l, r)
		default:
			return sqlval.Mod(l, r)
		}
	case "||":
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.String_(l.AsString() + r.AsString()), nil
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		c := sqlval.Compare(l, r)
		var res bool
		switch op {
		case "=":
			res = c == 0
		case "<>":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return sqlval.Bool(res), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		m := likeMatch(r.AsString(), l.AsString())
		if e.x.Not {
			m = !m
		}
		return sqlval.Bool(m), nil
	}
	return sqlval.Null, errf("unknown operator %q", op)
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
	if e.x.Not {
		in = !in
	}
	return sqlval.Bool(in), nil
}

func (ev *env) evalFunc(e *bexpr) (sqlval.Value, error) {
	fn := e.x.Func
	if sqlparser.IsAggregate(fn) {
		return sqlval.Null, errf("aggregate %s outside grouped query", fn)
	}
	// Every built-in but the variadic CONCAT and COALESCE takes at most
	// three arguments: they evaluate into an array on the stack, so a
	// function applied once per row allocates no argument slice.
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
	need := func(n int) error {
		if len(args) != n {
			return errf("%s expects %d argument(s), got %d", fn, n, len(args))
		}
		return nil
	}
	switch fn {
	case "NOW", "CURRENT_TIMESTAMP":
		return sqlval.Time(time.Now()), nil
	case "CURRENT_DATE":
		// Midnight UTC, as sqlparser.RewriteMacros writes it.
		return sqlval.Time(time.Now().Truncate(24 * time.Hour)), nil
	case "RAND":
		return sqlval.Float(rand.Float64()), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.Int(int64(len(args[0].AsString()))), nil
	case "UPPER":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.String_(strings.ToUpper(args[0].AsString())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.String_(strings.ToLower(args[0].AsString())), nil
	case "ABS":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		if args[0].K == sqlval.KindInt {
			if args[0].I < 0 {
				return sqlval.Int(-args[0].I), nil
			}
			return args[0], nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return sqlval.Null, err
		}
		return sqlval.Float(math.Abs(f)), nil
	case "FLOOR", "CEIL", "CEILING", "ROUND":
		if err := need(1); err != nil {
			return sqlval.Null, err
		}
		if args[0].IsNull() {
			return sqlval.Null, nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return sqlval.Null, err
		}
		switch fn {
		case "FLOOR":
			return sqlval.Int(int64(math.Floor(f))), nil
		case "ROUND":
			return sqlval.Int(int64(math.Round(f))), nil
		default:
			return sqlval.Int(int64(math.Ceil(f))), nil
		}
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqlval.Null, nil
	case "NULLIF":
		if err := need(2); err != nil {
			return sqlval.Null, err
		}
		if !args[0].IsNull() && !args[1].IsNull() && sqlval.Equal(args[0], args[1]) {
			return sqlval.Null, nil
		}
		return args[0], nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return sqlval.Null, nil
			}
			b.WriteString(a.AsString())
		}
		return sqlval.String_(b.String()), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return sqlval.Null, errf("SUBSTR expects 2 or 3 arguments")
		}
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
	case "MOD":
		if err := need(2); err != nil {
			return sqlval.Null, err
		}
		return sqlval.Mod(args[0], args[1])
	}
	return sqlval.Null, errf("unknown function %s", fn)
}

// likeMatch implements SQL LIKE: '%' matches any run of characters, '_'
// exactly one character (a rune, not a byte). Matching is case-insensitive,
// as MySQL's default collation is: runes compare after unicode.ToLower, one
// at a time, so nothing is copied. It is the iterative wildcard match: on a
// mismatch it backtracks only to the most recent '%', which then swallows
// one more character, so the cost is at most len(pattern)·len(s) steps
// however many '%' the pattern holds.
func likeMatch(pattern, s string) bool {
	p, i := 0, 0 // byte offsets into pattern and s
	star, mark := -1, 0
	for i < len(s) {
		if p < len(pattern) {
			pr, pw := foldRune(pattern, p)
			if pr == '%' {
				star, mark = p+pw, i
				p += pw
				continue
			}
			if sr, sw := foldRune(s, i); pr == '_' || pr == sr {
				p, i = p+pw, i+sw
				continue
			}
		}
		if star < 0 {
			return false
		}
		// Let the last '%' swallow one more character and retry from there.
		_, sw := foldRune(s, mark)
		mark += sw
		p, i = star, mark
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// foldRune decodes the rune at s[i:] lower-cased, with its width in bytes.
// An invalid byte decodes as utf8.RuneError of width 1.
func foldRune(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.ToLower(r), w
}
