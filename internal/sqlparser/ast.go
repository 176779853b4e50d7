package sqlparser

import (
	"strings"

	"cjdbc/internal/sqlval"
)

// Statement is implemented by every parsed SQL statement.
type Statement interface {
	stmt()
	// Tables returns the names of the tables the statement references,
	// lower-cased, without duplicates. Used for routing, partial
	// replication and cache invalidation.
	Tables() []string
	// Clone returns a deep copy of the statement. The parsing cache shares
	// one parsed tree across executions; a mutating operation (BindParams)
	// works on a clone.
	Clone() Statement
}

// ColumnDef describes one column of CREATE TABLE.
type ColumnDef struct {
	Name          string
	Type          sqlval.Kind
	NotNull       bool
	PrimaryKey    bool
	AutoIncrement bool
	Default       *Expr // nil when no default
}

// CreateTable is CREATE [TEMPORARY] TABLE.
type CreateTable struct {
	Table       string
	Temporary   bool
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string // table-level PRIMARY KEY(...) constraint
	AsSelect    *Select  // CREATE TABLE ... AS SELECT, nil otherwise
}

// DropTable is DROP TABLE.
type DropTable struct {
	Table    string
	IfExists bool
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (col).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// DropIndex is DROP INDEX name ON table.
type DropIndex struct {
	Name  string
	Table string
}

// Insert is INSERT INTO table [(cols)] VALUES (...)... or INSERT ... SELECT.
type Insert struct {
	Table   string
	Columns []string  // empty means table order
	Rows    [][]*Expr // VALUES form
	Query   *Select   // SELECT form, nil otherwise
	Bind    *Bindings // see Update.Bind
}

// Assignment is one SET column = expr clause.
type Assignment struct {
	Column string
	Value  *Expr
}

// Update is UPDATE table SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where *Expr
	// Bind holds what executors compiled from this tree (see Bindings).
	// The parser gives every tree its own; a clone gets a fresh one, since
	// it may be rewritten.
	Bind *Bindings
}

// Delete is DELETE FROM table [WHERE ...].
type Delete struct {
	Table string
	Where *Expr
	Bind  *Bindings // see Update.Bind
}

// JoinKind distinguishes the supported join flavours.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// TableRef is one entry of the FROM clause.
type TableRef struct {
	Table string
	Alias string // empty when none
	Join  JoinKind
	On    *Expr // nil for the first table and cross joins
}

// SelectItem is one projection of the select list.
type SelectItem struct {
	Expr  *Expr
	Alias string
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr *Expr
	Desc bool
}

// Select is a SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    *Expr
	GroupBy  []*Expr
	Having   *Expr
	OrderBy  []OrderItem
	Limit    *Expr // nil when absent
	Offset   *Expr
	Bind     *Bindings // see Update.Bind
}

// Begin starts a transaction.
type Begin struct{}

// Commit commits a transaction.
type Commit struct{}

// Rollback aborts a transaction.
type Rollback struct{}

// ShowTables lists the tables of the catalog (used by the console and by
// dynamic schema gathering).
type ShowTables struct{}

func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*CreateIndex) stmt() {}
func (*DropIndex) stmt()   {}
func (*Insert) stmt()      {}
func (*Update) stmt()      {}
func (*Delete) stmt()      {}
func (*Select) stmt()      {}
func (*Begin) stmt()       {}
func (*Commit) stmt()      {}
func (*Rollback) stmt()    {}
func (*ShowTables) stmt()  {}

// Tables implementations.

func one(t string) []string { return []string{strings.ToLower(t)} }

// Tables returns the created table plus any tables a CREATE ... AS SELECT reads.
func (s *CreateTable) Tables() []string {
	ts := one(s.Table)
	if s.AsSelect != nil {
		ts = mergeTables(ts, s.AsSelect.Tables())
	}
	return ts
}

// Tables returns the dropped table.
func (s *DropTable) Tables() []string { return one(s.Table) }

// Tables returns the indexed table.
func (s *CreateIndex) Tables() []string { return one(s.Table) }

// Tables returns the indexed table.
func (s *DropIndex) Tables() []string { return one(s.Table) }

// Tables returns the target table plus any tables an INSERT ... SELECT reads.
func (s *Insert) Tables() []string {
	ts := one(s.Table)
	if s.Query != nil {
		ts = mergeTables(ts, s.Query.Tables())
	}
	return ts
}

// Tables returns the updated table.
func (s *Update) Tables() []string { return one(s.Table) }

// Tables returns the table rows are deleted from.
func (s *Delete) Tables() []string { return one(s.Table) }

// Tables returns every table referenced in the FROM clause.
func (s *Select) Tables() []string {
	var ts []string
	for _, tr := range s.From {
		ts = mergeTables(ts, one(tr.Table))
	}
	return ts
}

// Tables returns nil: transaction demarcation touches no tables.
func (*Begin) Tables() []string { return nil }

// Tables returns nil.
func (*Commit) Tables() []string { return nil }

// Tables returns nil.
func (*Rollback) Tables() []string { return nil }

// Tables returns nil.
func (*ShowTables) Tables() []string { return nil }

func mergeTables(a, b []string) []string {
	for _, t := range b {
		found := false
		for _, x := range a {
			if x == t {
				found = true
				break
			}
		}
		if !found {
			a = append(a, t)
		}
	}
	return a
}

// ExprKind enumerates expression node types.
type ExprKind uint8

// Expression node kinds.
const (
	ExprLiteral ExprKind = iota
	ExprColumn
	ExprParam
	ExprUnary  // op in {-, NOT}
	ExprBinary // arithmetic, comparison, AND/OR, LIKE, ||
	ExprFunc   // function call, including aggregates
	ExprIn     // expr [NOT] IN (list)
	ExprBetween
	ExprIsNull // expr IS [NOT] NULL
	ExprStar   // COUNT(*) argument
)

// Expr is an expression tree node. A single struct with a kind tag keeps the
// evaluator compact and allocation-light.
type Expr struct {
	Kind ExprKind

	Lit sqlval.Value // ExprLiteral

	Table  string // ExprColumn qualifier (may be empty)
	Column string // ExprColumn name

	ParamIdx int // ExprParam: 0-based placeholder index

	Op    string // ExprUnary/ExprBinary operator, upper-cased
	Left  *Expr
	Right *Expr

	Func     string  // ExprFunc name, upper-cased
	Args     []*Expr // ExprFunc arguments
	Distinct bool    // COUNT(DISTINCT x)

	List []*Expr // ExprIn list
	Not  bool    // negates IN / BETWEEN / IS NULL / LIKE

	Low, High *Expr // ExprBetween bounds
}

// aggregateFuncs is the set of aggregate function names.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
}

// IsAggregate reports whether the function name is an aggregate.
func IsAggregate(name string) bool { return aggregateFuncs[strings.ToUpper(name)] }

// HasAggregate reports whether the expression tree contains an aggregate call.
func (e *Expr) HasAggregate() bool {
	if e == nil {
		return false
	}
	if e.Kind == ExprFunc && IsAggregate(e.Func) {
		return true
	}
	for _, c := range e.children() {
		if c.HasAggregate() {
			return true
		}
	}
	return false
}

func (e *Expr) children() []*Expr {
	var out []*Expr
	add := func(x *Expr) {
		if x != nil {
			out = append(out, x)
		}
	}
	add(e.Left)
	add(e.Right)
	add(e.Low)
	add(e.High)
	for _, a := range e.Args {
		add(a)
	}
	for _, a := range e.List {
		add(a)
	}
	return out
}

// Walk applies f to every node of the expression tree rooted at e.
func (e *Expr) Walk(f func(*Expr)) {
	if e == nil {
		return
	}
	f(e)
	for _, c := range e.children() {
		c.Walk(f)
	}
}
