package sqlparser

import (
	"math/rand"
	"strings"
	"time"

	"cjdbc/internal/sqlval"
)

// StatementClass is the coarse classification the request manager routes on.
type StatementClass uint8

// Statement classes, per §2.4.1 of the paper: reads go to one backend,
// writes to all backends hosting the affected tables, and transaction
// demarcation to every backend with a started transaction.
const (
	ClassRead StatementClass = iota
	ClassWrite
	ClassBegin
	ClassCommit
	ClassRollback
)

// String names the class for logs and metrics.
func (c StatementClass) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassBegin:
		return "begin"
	case ClassCommit:
		return "commit"
	case ClassRollback:
		return "rollback"
	}
	return "unknown"
}

// Classify returns the statement class of st.
func Classify(st Statement) StatementClass {
	st, _ = Unwrap(st)
	switch st.(type) {
	case *Select, *ShowTables:
		return ClassRead
	case *Begin:
		return ClassBegin
	case *Commit:
		return ClassCommit
	case *Rollback:
		return ClassRollback
	default:
		return ClassWrite
	}
}

// macroFuncs are the non-deterministic SQL functions the scheduler rewrites
// on the fly so that every backend stores exactly the same data (§2.4.1).
var macroFuncs = map[string]bool{
	"NOW": true, "RAND": true, "CURRENT_TIMESTAMP": true, "CURRENT_DATE": true,
}

// WalkExprs applies f to the root of every expression tree in st.
func WalkExprs(st Statement, f func(*Expr)) {
	walk := func(e *Expr) {
		if e != nil {
			e.Walk(f)
		}
	}
	st, _ = Unwrap(st)
	switch s := st.(type) {
	case *CreateTable:
		for _, c := range s.Columns {
			walk(c.Default)
		}
		if s.AsSelect != nil {
			WalkExprs(s.AsSelect, f)
		}
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				walk(e)
			}
		}
		if s.Query != nil {
			WalkExprs(s.Query, f)
		}
	case *Update:
		for _, a := range s.Set {
			walk(a.Value)
		}
		walk(s.Where)
	case *Delete:
		walk(s.Where)
	case *Select:
		for _, it := range s.Items {
			walk(it.Expr)
		}
		for _, tr := range s.From {
			walk(tr.On)
		}
		walk(s.Where)
		for _, g := range s.GroupBy {
			walk(g)
		}
		walk(s.Having)
		for _, o := range s.OrderBy {
			walk(o.Expr)
		}
		walk(s.Limit)
		walk(s.Offset)
	}
}

// HasMacros reports whether st contains a non-deterministic macro call.
func HasMacros(st Statement) bool {
	found := false
	WalkExprs(st, func(e *Expr) {
		if e.Kind == ExprFunc && macroFuncs[e.Func] {
			found = true
		}
	})
	return found
}

// RewriteMacros replaces every NOW()/CURRENT_TIMESTAMP with the fixed time
// now, every CURRENT_DATE with now's day at midnight UTC (what the engine
// evaluates it to) and every RAND() with a float drawn from rng, mutating
// st in place. The scheduler calls this once per write so that all
// replicas apply identical values.
func RewriteMacros(st Statement, now time.Time, rng *rand.Rand) {
	WalkExprs(st, func(e *Expr) {
		if e.Kind != ExprFunc || !macroFuncs[e.Func] {
			return
		}
		switch e.Func {
		case "NOW", "CURRENT_TIMESTAMP":
			*e = Expr{Kind: ExprLiteral, Lit: sqlval.Time(now)}
		case "CURRENT_DATE":
			*e = Expr{Kind: ExprLiteral, Lit: sqlval.Time(now.Truncate(24 * time.Hour))}
		case "RAND":
			*e = Expr{Kind: ExprLiteral, Lit: sqlval.Float(rng.Float64())}
		}
	})
}

// WriteTarget returns the single table a write statement will take an
// exclusive lock on (its target), and ok=false for non-write statements.
// The clustering middleware reserves this lock at dispatch time.
func WriteTarget(st Statement) (string, bool) {
	st, _ = Unwrap(st)
	switch s := st.(type) {
	case *Insert:
		return strings.ToLower(s.Table), true
	case *Update:
		return strings.ToLower(s.Table), true
	case *Delete:
		return strings.ToLower(s.Table), true
	case *CreateTable:
		return strings.ToLower(s.Table), true
	case *DropTable:
		return strings.ToLower(s.Table), true
	case *CreateIndex:
		return strings.ToLower(s.Table), true
	case *DropIndex:
		return strings.ToLower(s.Table), true
	}
	return "", false
}

// WrittenColumns returns the lower-cased columns a write statement modifies
// on its target table, or nil when the whole table must be assumed modified
// (DELETE, DDL, INSERT without a column list). Used by column-granularity
// cache invalidation.
func WrittenColumns(st Statement) []string {
	st, _ = Unwrap(st)
	switch s := st.(type) {
	case *Insert:
		if len(s.Columns) == 0 {
			return nil
		}
		out := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			out[i] = strings.ToLower(c)
		}
		return out
	case *Update:
		out := make([]string, len(s.Set))
		for i, a := range s.Set {
			out[i] = strings.ToLower(a.Column)
		}
		return out
	default:
		return nil
	}
}

// ReadColumns returns the lower-cased column names a SELECT references, and
// ok=false when the statement reads columns that cannot be enumerated
// (SELECT *). Used by column-granularity cache invalidation.
func ReadColumns(st Statement) (cols []string, ok bool) {
	st, _ = Unwrap(st)
	sel, isSel := st.(*Select)
	if !isSel {
		return nil, false
	}
	seen := map[string]bool{}
	ok = true
	for _, it := range sel.Items {
		if it.Star {
			ok = false
		}
	}
	WalkExprs(sel, func(e *Expr) {
		if e.Kind == ExprColumn && !seen[e.Column] {
			seen[e.Column] = true
			cols = append(cols, e.Column)
		}
	})
	return cols, ok
}

// NumParams returns the number of ? placeholders in st.
func NumParams(st Statement) int {
	n := 0
	WalkExprs(st, func(e *Expr) {
		if e.Kind == ExprParam && e.ParamIdx+1 > n {
			n = e.ParamIdx + 1
		}
	})
	return n
}

// BindParams replaces every ? placeholder with the corresponding literal,
// mutating st in place, and refuses a vector that leaves a placeholder
// unbound or holds more values than st has placeholders. The request
// manager binds this way only for statements with macros; every other
// statement travels as a Bound and is rendered with RenderParams.
func BindParams(st Statement, params []sqlval.Value) error {
	var bindErr error
	n := 0
	WalkExprs(st, func(e *Expr) {
		if e.Kind != ExprParam {
			return
		}
		n = max(n, e.ParamIdx+1)
		if e.ParamIdx >= len(params) {
			if bindErr == nil {
				bindErr = &BindError{Index: e.ParamIdx, Have: len(params)}
			}
			return
		}
		*e = Expr{Kind: ExprLiteral, Lit: params[e.ParamIdx]}
	})
	if bindErr == nil {
		bindErr = CheckParams(n, len(params))
	}
	return bindErr
}

// CheckParams returns the *BindError for a statement with want placeholders
// given have values, or nil when the counts agree.
func CheckParams(want, have int) error {
	switch {
	case have < want:
		return &BindError{Index: have, Have: have}
	case have > want:
		return &BindError{Index: want, Have: have}
	}
	return nil
}

// BindError reports a parameter vector that does not fit its statement's
// placeholders. Index is the 0-based position where they part: an unbound
// placeholder when Index >= Have, the first value without a placeholder
// otherwise.
type BindError struct {
	Index int
	Have  int
}

// Error implements the error interface.
func (e *BindError) Error() string {
	if e.Index < e.Have {
		return "sql: statement takes " + itoa(e.Index) + " parameters (" + itoa(e.Have) + " provided)"
	}
	return "sql: statement parameter " + itoa(e.Index+1) + " not bound (" + itoa(e.Have) + " provided)"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		n--
		b[n] = '-'
	}
	return string(b[n:])
}
