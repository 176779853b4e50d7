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

// env is the evaluation environment of one (joined) row.
type env struct {
	cols   map[string]int // "col", "alias.col", "table.col" -> position
	row    []sqlval.Value // the combined row
	aggs   *aggRow        // one group's aggregate values, grouped queries only
	params []sqlval.Value // the statement's parameter vector
}

// aggRow is one group's finished aggregates: vals[i] is the value of the
// grouped query's aggregate call exprs[i].
type aggRow struct {
	exprs []*sqlparser.Expr
	vals  []sqlval.Value
}

// lookupColumn resolves a column reference in the environment.
func (ev *env) lookupColumn(e *sqlparser.Expr) (sqlval.Value, error) {
	idx, ok := colPos(ev.cols, e)
	if !ok {
		key := e.Column
		if e.Table != "" {
			key = e.Table + "." + e.Column
		}
		return sqlval.Null, errf("unknown column %q", key)
	}
	return ev.row[idx], nil
}

// colPos looks a column reference up in a column map. A qualified name's
// "table.col" key is built in a stack buffer, so resolving it per row
// allocates nothing.
func colPos(cols map[string]int, e *sqlparser.Expr) (int, bool) {
	if e.Table == "" {
		idx, ok := cols[e.Column]
		return idx, ok
	}
	var buf [64]byte
	key := append(append(append(buf[:0], e.Table...), '.'), e.Column...)
	idx, ok := cols[string(key)]
	return idx, ok
}

// eval evaluates an expression tree against the environment. Comparisons
// involving NULL yield NULL (three-valued logic); AND/OR follow Kleene
// semantics.
func (ev *env) eval(e *sqlparser.Expr) (sqlval.Value, error) {
	switch e.Kind {
	case sqlparser.ExprLiteral, sqlparser.ExprParam:
		if v, ok := e.LitValue(ev.params); ok {
			return v, nil
		}
		return sqlval.Null, errf("unbound parameter ?%d", e.ParamIdx+1)
	case sqlparser.ExprColumn:
		return ev.lookupColumn(e)
	case sqlparser.ExprStar:
		return sqlval.Null, errf("'*' outside COUNT(*)")
	case sqlparser.ExprUnary:
		return ev.evalUnary(e)
	case sqlparser.ExprBinary:
		return ev.evalBinary(e)
	case sqlparser.ExprFunc:
		if ev.aggs != nil {
			for i, ae := range ev.aggs.exprs {
				if ae == e {
					return ev.aggs.vals[i], nil
				}
			}
		}
		return ev.evalFunc(e)
	case sqlparser.ExprIn:
		return ev.evalIn(e)
	case sqlparser.ExprBetween:
		return ev.evalBetween(e)
	case sqlparser.ExprIsNull:
		v, err := ev.eval(e.Left)
		if err != nil {
			return sqlval.Null, err
		}
		res := v.IsNull()
		if e.Not {
			res = !res
		}
		return sqlval.Bool(res), nil
	}
	return sqlval.Null, errf("cannot evaluate expression kind %d", e.Kind)
}

func (ev *env) evalUnary(e *sqlparser.Expr) (sqlval.Value, error) {
	v, err := ev.eval(e.Left)
	if err != nil {
		return sqlval.Null, err
	}
	switch e.Op {
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
	return sqlval.Null, errf("unknown unary operator %q", e.Op)
}

func (ev *env) evalBinary(e *sqlparser.Expr) (sqlval.Value, error) {
	// AND/OR evaluate lazily with Kleene semantics.
	switch e.Op {
	case "AND":
		l, err := ev.eval(e.Left)
		if err != nil {
			return sqlval.Null, err
		}
		if !l.IsNull() && !l.AsBool() {
			return sqlval.Bool(false), nil
		}
		r, err := ev.eval(e.Right)
		if err != nil {
			return sqlval.Null, err
		}
		if !r.IsNull() && !r.AsBool() {
			return sqlval.Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.Bool(true), nil
	case "OR":
		l, err := ev.eval(e.Left)
		if err != nil {
			return sqlval.Null, err
		}
		if !l.IsNull() && l.AsBool() {
			return sqlval.Bool(true), nil
		}
		r, err := ev.eval(e.Right)
		if err != nil {
			return sqlval.Null, err
		}
		if !r.IsNull() && r.AsBool() {
			return sqlval.Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqlval.Null, nil
		}
		return sqlval.Bool(false), nil
	}
	l, err := ev.eval(e.Left)
	if err != nil {
		return sqlval.Null, err
	}
	r, err := ev.eval(e.Right)
	if err != nil {
		return sqlval.Null, err
	}
	switch e.Op {
	case "+", "-", "*", "/", "%":
		switch e.Op {
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
		switch e.Op {
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
		if e.Not {
			m = !m
		}
		return sqlval.Bool(m), nil
	}
	return sqlval.Null, errf("unknown operator %q", e.Op)
}

func (ev *env) evalIn(e *sqlparser.Expr) (sqlval.Value, error) {
	v, err := ev.eval(e.Left)
	if err != nil {
		return sqlval.Null, err
	}
	if v.IsNull() {
		return sqlval.Null, nil
	}
	sawNull := false
	for _, item := range e.List {
		iv, err := ev.eval(item)
		if err != nil {
			return sqlval.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if sqlval.Equal(v, iv) {
			return sqlval.Bool(!e.Not), nil
		}
	}
	if sawNull {
		return sqlval.Null, nil
	}
	return sqlval.Bool(e.Not), nil
}

func (ev *env) evalBetween(e *sqlparser.Expr) (sqlval.Value, error) {
	v, err := ev.eval(e.Left)
	if err != nil {
		return sqlval.Null, err
	}
	lo, err := ev.eval(e.Low)
	if err != nil {
		return sqlval.Null, err
	}
	hi, err := ev.eval(e.High)
	if err != nil {
		return sqlval.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqlval.Null, nil
	}
	in := sqlval.Compare(v, lo) >= 0 && sqlval.Compare(v, hi) <= 0
	if e.Not {
		in = !in
	}
	return sqlval.Bool(in), nil
}

func (ev *env) evalFunc(e *sqlparser.Expr) (sqlval.Value, error) {
	if sqlparser.IsAggregate(e.Func) {
		return sqlval.Null, errf("aggregate %s outside grouped query", e.Func)
	}
	args := make([]sqlval.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := ev.eval(a)
		if err != nil {
			return sqlval.Null, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return errf("%s expects %d argument(s), got %d", e.Func, n, len(args))
		}
		return nil
	}
	switch e.Func {
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
		switch e.Func {
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
	return sqlval.Null, errf("unknown function %s", e.Func)
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
