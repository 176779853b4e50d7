package sqlparser

import (
	"slices"

	"cjdbc/internal/sqlval"
)

// Bound is a statement executed with a parameter vector: the shared parsed
// tree of a cached plan, the text it was parsed from, and the values its ?
// placeholders stand for. It is how a parameterised request travels from the
// request manager to a backend without a per-execution copy of the tree:
// the engine reads each placeholder from Params when it evaluates it, a
// nested controller receives SQL and Params as they are, the in-memory
// recovery log keeps the write's Bound itself, and Render turns the pair
// into literal text where text is still needed (a log file, the
// distributed broadcast).
//
// Stmt is shared by every execution of the plan and is never mutated
// through a Bound. The analysis functions of this package (Classify,
// WriteTarget, ConflictClass, WalkExprs, ...) see a Bound as its Stmt.
type Bound struct {
	Stmt   Statement
	SQL    string // Stmt's text, placeholders included
	Params []sqlval.Value
}

func (*Bound) stmt() {}

// Tables returns the bound statement's tables.
func (b *Bound) Tables() []string { return b.Stmt.Tables() }

// Clone deep-copies the tree and the vector.
func (b *Bound) Clone() Statement {
	return &Bound{Stmt: b.Stmt.Clone(), SQL: b.SQL, Params: slices.Clone(b.Params)}
}

// Unwrap returns the tree st executes and the vector its placeholders read:
// st itself and nil unless st is a *Bound.
func Unwrap(st Statement) (Statement, []sqlval.Value) {
	if b, ok := st.(*Bound); ok {
		return b.Stmt, b.Params
	}
	return st, nil
}

// LitValue returns the value a literal or a parameter node stands for, a
// parameter read from params. ok is false for every other node and for a
// parameter params does not cover. The engine's evaluator and access
// planner and the renderer all read operands through it, so a bound
// parameter behaves exactly like the literal BindParams would put in its
// place.
func (e *Expr) LitValue(params []sqlval.Value) (v sqlval.Value, ok bool) {
	switch e.Kind {
	case ExprLiteral:
		return e.Lit, true
	case ExprParam:
		if e.ParamIdx < len(params) {
			return params[e.ParamIdx], true
		}
	}
	return sqlval.Null, false
}
