package sqlparser

import (
	"math/rand"
	"strconv"
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

// macroFuncs are the non-deterministic SQL functions a write's vector
// fills once per execution (SlotMacros) so that every backend stores
// exactly the same data (§2.4.1).
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

// Slot is what fills one parameter of a tree SlotMacros rewrote: the
// client's parameter Param, or the value of the macro Macro names.
type Slot struct {
	Macro string // NOW, CURRENT_TIMESTAMP, CURRENT_DATE or RAND; "" for Param
	Param int
}

// SlotMacros turns every macro call in st into a parameter and renumbers
// all of st's parameters in the order WalkExprs visits them, which is the
// order Render writes them, mutating st in place. It returns what fills
// each parameter. The request manager slots a freshly parsed write once and
// fills its vector per execution (FillSlots), so every backend stores
// exactly the same data (§2.4.1); and Render(st) holds one ? per vector
// entry in vector order, which is how a nested controller numbers them.
func SlotMacros(st Statement) []Slot {
	var slots []Slot
	WalkExprs(st, func(e *Expr) {
		switch {
		case e.Kind == ExprParam:
			slots = append(slots, Slot{Param: e.ParamIdx})
		case e.Kind == ExprFunc && macroFuncs[e.Func]:
			slots = append(slots, Slot{Macro: e.Func})
		default:
			return
		}
		*e = Expr{Kind: ExprParam, ParamIdx: len(slots) - 1}
	})
	return slots
}

// FillSlots returns the vector of a tree SlotMacros rewrote: each client
// parameter from params, NOW() and CURRENT_TIMESTAMP as now, CURRENT_DATE
// as now's day at midnight UTC (what the engine evaluates it to) and each
// RAND() as one draw from rng.
func FillSlots(slots []Slot, params []sqlval.Value, now time.Time, rng *rand.Rand) []sqlval.Value {
	vec := make([]sqlval.Value, len(slots))
	for i, sl := range slots {
		vec[i] = sqlval.Time(now)
		switch sl.Macro {
		case "":
			vec[i] = params[sl.Param]
		case "CURRENT_DATE":
			vec[i] = sqlval.Time(now.Truncate(24 * time.Hour))
		case "RAND":
			vec[i] = sqlval.Float(rng.Float64())
		}
	}
	return vec
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
// manager never binds this way: a statement travels as a Bound and is
// rendered with RenderParams.
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
		return "sql: statement takes " + strconv.Itoa(e.Index) + " parameters (" + strconv.Itoa(e.Have) + " provided)"
	}
	return "sql: statement parameter " + strconv.Itoa(e.Index+1) + " not bound (" + strconv.Itoa(e.Have) + " provided)"
}
