package sqlparser

// Clone deep-copies an expression tree. Literal values are copied by value:
// a Value's payloads are never mutated after parsing, so sharing the byte
// slice of a BLOB literal between clones is safe.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.Left = e.Left.Clone()
	c.Right = e.Right.Clone()
	c.Low = e.Low.Clone()
	c.High = e.High.Clone()
	c.Args = cloneExprs(e.Args)
	c.List = cloneExprs(e.List)
	return &c
}

func cloneExprs(es []*Expr) []*Expr {
	if es == nil {
		return nil
	}
	out := make([]*Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}

func cloneStrings(ss []string) []string {
	if ss == nil {
		return nil
	}
	return append([]string(nil), ss...)
}

// Clone implementations. The parsing cache hands the same parsed Statement
// to every execution of a SQL text; any caller that needs to mutate the tree
// (parameter binding) must clone first.

// Clone deep-copies the statement.
func (s *CreateTable) Clone() Statement {
	c := *s
	if s.Columns != nil {
		c.Columns = make([]ColumnDef, len(s.Columns))
		for i, col := range s.Columns {
			c.Columns[i] = col
			c.Columns[i].Default = col.Default.Clone()
		}
	}
	c.PrimaryKey = cloneStrings(s.PrimaryKey)
	if s.AsSelect != nil {
		c.AsSelect = s.AsSelect.Clone().(*Select)
	}
	return &c
}

// Clone deep-copies the statement.
func (s *DropTable) Clone() Statement { c := *s; return &c }

// Clone deep-copies the statement.
func (s *CreateIndex) Clone() Statement {
	c := *s
	c.Columns = cloneStrings(s.Columns)
	return &c
}

// Clone deep-copies the statement.
func (s *DropIndex) Clone() Statement { c := *s; return &c }

// Clone deep-copies the statement.
func (s *Insert) Clone() Statement {
	c := *s
	c.Columns = cloneStrings(s.Columns)
	if s.Rows != nil {
		c.Rows = make([][]*Expr, len(s.Rows))
		for i, row := range s.Rows {
			c.Rows[i] = cloneExprs(row)
		}
	}
	if s.Query != nil {
		c.Query = s.Query.Clone().(*Select)
	}
	c.Bind = new(Bindings)
	return &c
}

// Clone deep-copies the statement.
func (s *Update) Clone() Statement {
	c := *s
	if s.Set != nil {
		c.Set = make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			c.Set[i] = Assignment{Column: a.Column, Value: a.Value.Clone()}
		}
	}
	c.Where = s.Where.Clone()
	c.Bind = new(Bindings)
	return &c
}

// Clone deep-copies the statement.
func (s *Delete) Clone() Statement {
	c := *s
	c.Where = s.Where.Clone()
	c.Bind = new(Bindings)
	return &c
}

// Clone deep-copies the statement.
func (s *Select) Clone() Statement {
	c := *s
	if s.Items != nil {
		c.Items = make([]SelectItem, len(s.Items))
		for i, it := range s.Items {
			c.Items[i] = it
			c.Items[i].Expr = it.Expr.Clone()
		}
	}
	if s.From != nil {
		c.From = make([]TableRef, len(s.From))
		for i, tr := range s.From {
			c.From[i] = tr
			c.From[i].On = tr.On.Clone()
		}
	}
	c.Where = s.Where.Clone()
	c.GroupBy = cloneExprs(s.GroupBy)
	c.Having = s.Having.Clone()
	if s.OrderBy != nil {
		c.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			c.OrderBy[i] = OrderItem{Expr: o.Expr.Clone(), Desc: o.Desc}
		}
	}
	c.Limit = s.Limit.Clone()
	c.Offset = s.Offset.Clone()
	c.Bind = new(Bindings)
	return &c
}

// Clone returns the receiver: the statement has no mutable state.
func (s *Begin) Clone() Statement { return s }

// Clone returns the receiver: the statement has no mutable state.
func (s *Commit) Clone() Statement { return s }

// Clone returns the receiver: the statement has no mutable state.
func (s *Rollback) Clone() Statement { return s }

// Clone returns the receiver: the statement has no mutable state.
func (s *ShowTables) Clone() Statement { return s }
