package sqlparser

import (
	"bytes"
	"strings"
	"sync"

	"cjdbc/internal/sqlval"
)

// Render turns a parsed statement back into SQL text: RenderParams with no
// vector (a Bound renders with its own). The output is accepted by Parse
// (round-trip property), which the recovery log, the wire protocol and
// the slotted text of a write with macros (SlotMacros) rely on.
func Render(st Statement) string { return RenderParams(st, nil) }

// RenderParams renders st with each placeholder params covers written as
// that value's literal, and every other placeholder as ?. The text is
// byte-identical to rendering a clone of st after BindParams(clone, params),
// without the clone: a log file's record and the distributed broadcast
// render a bound write this way from the shared tree of a cached plan. The
// text is rendered into a pooled buffer and returned as an exact-size copy,
// so no spare capacity stays live with a string its caller keeps.
func RenderParams(st Statement, params []sqlval.Value) string {
	r := renderers.Get().(*renderer)
	r.params = params
	r.stmt(st)
	text := r.String()
	r.params = nil
	if r.Cap() <= maxPooledRender {
		r.Reset()
		renderers.Put(r)
	}
	return text
}

// renderer writes one statement's text, reading placeholders from params.
type renderer struct {
	bytes.Buffer
	params []sqlval.Value
}

// renderers recycles render buffers; one that grew past maxPooledRender
// (a bulk INSERT) is left to the collector.
var renderers = sync.Pool{New: func() any { return new(renderer) }}

const maxPooledRender = 64 << 10

func (b *renderer) stmt(st Statement) {
	switch s := st.(type) {
	case *Bound:
		b.params = s.Params
		b.stmt(s.Stmt)
	case *CreateTable:
		b.WriteString("CREATE ")
		if s.Temporary {
			b.WriteString("TEMPORARY ")
		}
		b.WriteString("TABLE ")
		if s.IfNotExists {
			b.WriteString("IF NOT EXISTS ")
		}
		b.WriteString(s.Table)
		if s.AsSelect != nil {
			b.WriteString(" AS ")
			b.stmt(s.AsSelect)
			return
		}
		b.WriteString(" (")
		for i, c := range s.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteByte(' ')
			b.WriteString(typeName(c.Type))
			if c.PrimaryKey {
				b.WriteString(" PRIMARY KEY")
			} else if c.NotNull {
				b.WriteString(" NOT NULL")
			}
			if c.AutoIncrement {
				b.WriteString(" AUTO_INCREMENT")
			}
			if c.Default != nil {
				b.WriteString(" DEFAULT ")
				b.expr(c.Default)
			}
		}
		if len(s.PrimaryKey) > 0 {
			b.WriteString(", PRIMARY KEY (")
			b.WriteString(strings.Join(s.PrimaryKey, ", "))
			b.WriteString(")")
		}
		b.WriteString(")")
	case *DropTable:
		b.WriteString("DROP TABLE ")
		if s.IfExists {
			b.WriteString("IF EXISTS ")
		}
		b.WriteString(s.Table)
	case *CreateIndex:
		b.WriteString("CREATE ")
		if s.Unique {
			b.WriteString("UNIQUE ")
		}
		b.WriteString("INDEX ")
		b.WriteString(s.Name)
		b.WriteString(" ON ")
		b.WriteString(s.Table)
		b.WriteString(" (")
		b.WriteString(strings.Join(s.Columns, ", "))
		b.WriteString(")")
	case *DropIndex:
		b.WriteString("DROP INDEX ")
		b.WriteString(s.Name)
		b.WriteString(" ON ")
		b.WriteString(s.Table)
	case *Insert:
		b.WriteString("INSERT INTO ")
		b.WriteString(s.Table)
		if len(s.Columns) > 0 {
			b.WriteString(" (")
			b.WriteString(strings.Join(s.Columns, ", "))
			b.WriteString(")")
		}
		if s.Query != nil {
			b.WriteByte(' ')
			b.stmt(s.Query)
			return
		}
		b.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, e := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				b.expr(e)
			}
			b.WriteString(")")
		}
	case *Update:
		b.WriteString("UPDATE ")
		b.WriteString(s.Table)
		b.WriteString(" SET ")
		for i, a := range s.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Column)
			b.WriteString(" = ")
			b.expr(a.Value)
		}
		if s.Where != nil {
			b.WriteString(" WHERE ")
			b.expr(s.Where)
		}
	case *Delete:
		b.WriteString("DELETE FROM ")
		b.WriteString(s.Table)
		if s.Where != nil {
			b.WriteString(" WHERE ")
			b.expr(s.Where)
		}
	case *Select:
		b.selectStmt(s)
	case *Begin:
		b.WriteString("BEGIN")
	case *Commit:
		b.WriteString("COMMIT")
	case *Rollback:
		b.WriteString("ROLLBACK")
	case *ShowTables:
		b.WriteString("SHOW TABLES")
	}
}

func typeName(k sqlval.Kind) string {
	switch k {
	case sqlval.KindInt:
		return "INTEGER"
	case sqlval.KindFloat:
		return "FLOAT"
	case sqlval.KindString:
		return "VARCHAR"
	case sqlval.KindBool:
		return "BOOLEAN"
	case sqlval.KindTime:
		return "TIMESTAMP"
	case sqlval.KindBytes:
		return "BLOB"
	}
	return "VARCHAR"
}

func (b *renderer) selectStmt(s *Select) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			if it.Table != "" {
				b.WriteString(it.Table)
				b.WriteString(".")
			}
			b.WriteString("*")
			continue
		}
		b.expr(it.Expr)
		if it.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(it.Alias)
		}
	}
	for i, tr := range s.From {
		if i == 0 {
			b.WriteString(" FROM ")
		} else {
			switch tr.Join {
			case JoinCross:
				b.WriteString(" CROSS JOIN ")
			case JoinLeft:
				b.WriteString(" LEFT JOIN ")
			default:
				b.WriteString(" JOIN ")
			}
		}
		b.WriteString(tr.Table)
		if tr.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(tr.Alias)
		}
		if tr.On != nil {
			b.WriteString(" ON ")
			b.expr(tr.On)
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.expr(g)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.expr(o.Expr)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT ")
		b.expr(s.Limit)
		if s.Offset != nil {
			b.WriteString(" OFFSET ")
			b.expr(s.Offset)
		}
	}
}

func (b *renderer) expr(e *Expr) {
	if e == nil {
		return
	}
	if v, ok := e.LitValue(b.params); ok {
		b.Write(v.AppendSQLLiteral(b.AvailableBuffer()))
		return
	}
	switch e.Kind {
	case ExprColumn:
		if e.Table != "" {
			b.WriteString(e.Table)
			b.WriteString(".")
		}
		b.WriteString(e.Column)
	case ExprParam:
		b.WriteString("?")
	case ExprStar:
		b.WriteString("*")
	case ExprUnary:
		if e.Op == "NOT" {
			b.WriteString("NOT (")
			b.expr(e.Left)
			b.WriteString(")")
		} else {
			b.WriteString(e.Op)
			b.WriteString("(")
			b.expr(e.Left)
			b.WriteString(")")
		}
	case ExprBinary:
		b.WriteString("(")
		b.expr(e.Left)
		b.WriteString(" ")
		if e.Not && e.Op == "LIKE" {
			b.WriteString("NOT ")
		}
		b.WriteString(e.Op)
		b.WriteString(" ")
		b.expr(e.Right)
		b.WriteString(")")
	case ExprFunc:
		b.WriteString(e.Func)
		b.WriteString("(")
		if e.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.expr(a)
		}
		b.WriteString(")")
	case ExprIn:
		b.WriteString("(")
		b.expr(e.Left)
		if e.Not {
			b.WriteString(" NOT IN (")
		} else {
			b.WriteString(" IN (")
		}
		for i, a := range e.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.expr(a)
		}
		b.WriteString("))")
	case ExprBetween:
		b.WriteString("(")
		b.expr(e.Left)
		if e.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		b.expr(e.Low)
		b.WriteString(" AND ")
		b.expr(e.High)
		b.WriteString(")")
	case ExprIsNull:
		b.WriteString("(")
		b.expr(e.Left)
		if e.Not {
			b.WriteString(" IS NOT NULL)")
		} else {
			b.WriteString(" IS NULL)")
		}
	}
}
