package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"cjdbc/internal/sqlval"
)

// Parse parses a single SQL statement. A trailing semicolon is allowed.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{src: sql, toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokOp, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errorf("unexpected %q after statement", p.cur().text)
	}
	return st, nil
}

type parser struct {
	src     string
	toks    []token
	pos     int
	nparams int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tokenKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

// atKw reports whether the current token is the given keyword.
func (p *parser) atKw(kw string) bool { return p.at(tokKeyword, kw) }

// accept consumes the current token when it matches.
func (p *parser) accept(k tokenKind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool { return p.accept(tokKeyword, kw) }

func (p *parser) expect(k tokenKind, text string) (token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = map[tokenKind]string{tokIdent: "identifier", tokNumber: "number", tokString: "string"}[k]
	}
	return token{}, p.errorf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) expectKw(kw string) error {
	_, err := p.expect(tokKeyword, kw)
	return err
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return parseErrf("%s (at offset %d in %q)", fmt.Sprintf(format, args...), p.cur().pos, truncate(p.src))
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

// ident accepts an identifier or a non-reserved keyword used as a name
// (type names like TEXT appear as column names in the wild).
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "KEY", "TEXT", "TIMESTAMP", "INDEX", "SHOW", "TABLES", "USE":
			p.pos++
			return strings.ToLower(t.text), nil
		}
	}
	return "", p.errorf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.atKw("SELECT"):
		return p.parseSelect()
	case p.atKw("INSERT"):
		return p.parseInsert()
	case p.atKw("UPDATE"):
		return p.parseUpdate()
	case p.atKw("DELETE"):
		return p.parseDelete()
	case p.atKw("CREATE"):
		return p.parseCreate()
	case p.atKw("DROP"):
		return p.parseDrop()
	case p.acceptKw("BEGIN"):
		return &Begin{}, nil
	case p.acceptKw("START"):
		if err := p.expectKw("TRANSACTION"); err != nil {
			return nil, err
		}
		return &Begin{}, nil
	case p.acceptKw("COMMIT"):
		return &Commit{}, nil
	case p.acceptKw("ROLLBACK"):
		return &Rollback{}, nil
	case p.acceptKw("ABORT"):
		return &Rollback{}, nil
	case p.acceptKw("SHOW"):
		if err := p.expectKw("TABLES"); err != nil {
			return nil, err
		}
		return &ShowTables{}, nil
	}
	return nil, p.errorf("unsupported statement start %q", p.cur().text)
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.acceptKw("UNIQUE")
	if p.acceptKw("INDEX") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return &CreateIndex{Name: name, Table: table, Columns: cols, Unique: unique}, nil
	}
	if unique {
		return nil, p.errorf("expected INDEX after CREATE UNIQUE")
	}
	temp := p.acceptKw("TEMPORARY") || p.acceptKw("TEMP")
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTable{Temporary: temp}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct.Table = name
	if p.acceptKw("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ct.AsSelect = sel
		return ct, nil
	}
	if _, err := p.expect(tokOp, "("); err != nil {
		return nil, err
	}
	for {
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, "("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, c)
				if !p.accept(tokOp, ",") {
					break
				}
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var cd ColumnDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	kind, err := p.parseType()
	if err != nil {
		return cd, err
	}
	cd.Type = kind
	for {
		switch {
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return cd, err
			}
			cd.NotNull = true
		case p.acceptKw("NULL"):
			// explicit NULL permission: nothing to record
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return cd, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		case p.acceptKw("AUTO_INCREMENT"):
			cd.AutoIncrement = true
		case p.acceptKw("UNIQUE"):
			// accepted and ignored at column level
		case p.acceptKw("DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return cd, err
			}
			cd.Default = e
		case p.acceptKw("REFERENCES"):
			// REFERENCES table(col): parsed and ignored (no FK enforcement).
			if _, err := p.ident(); err != nil {
				return cd, err
			}
			if p.accept(tokOp, "(") {
				if _, err := p.ident(); err != nil {
					return cd, err
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return cd, err
				}
			}
		default:
			return cd, nil
		}
	}
}

func (p *parser) parseType() (sqlval.Kind, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return sqlval.KindNull, p.errorf("expected type name, found %q", t.text)
	}
	p.pos++
	var k sqlval.Kind
	switch t.text {
	case "INTEGER", "INT", "BIGINT":
		k = sqlval.KindInt
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		k = sqlval.KindFloat
	case "VARCHAR", "TEXT", "CHAR":
		k = sqlval.KindString
	case "BOOLEAN":
		k = sqlval.KindBool
	case "TIMESTAMP", "DATETIME":
		k = sqlval.KindTime
	case "BLOB":
		k = sqlval.KindBytes
	default:
		return sqlval.KindNull, p.errorf("unknown type %q", t.text)
	}
	// Optional (n) or (p,s) size suffix.
	if p.accept(tokOp, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
			return k, err
		}
		if p.accept(tokOp, ",") {
			if _, err := p.expect(tokNumber, ""); err != nil {
				return k, err
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return k, err
		}
	}
	return k, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if p.acceptKw("INDEX") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name, Table: table}, nil
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	dt.Table = name
	return dt, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table, Bind: new(Bindings)}
	if p.accept(tokOp, "(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
	}
	if p.atKw("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = sel
		return ins, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		var row []*Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
		if _, err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	up := &Update{Table: table, Bind: new(Bindings)}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: e})
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	return up, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table, Bind: new(Bindings)}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Bind: new(Bindings)}
	sel.Distinct = p.acceptKw("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		first := true
		for {
			var tr TableRef
			if first {
				first = false
			} else if p.accept(tokOp, ",") || p.acceptKw("CROSS") && p.acceptKw("JOIN") {
				tr.Join = JoinCross
			} else if p.acceptKw("JOIN") || p.acceptKw("INNER") && p.acceptKw("JOIN") {
				tr.Join = JoinInner
			} else if p.acceptKw("LEFT") {
				p.acceptKw("OUTER")
				if err := p.expectKw("JOIN"); err != nil {
					return nil, err
				}
				tr.Join = JoinLeft
			} else {
				break
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			tr.Table = name
			if p.acceptKw("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				tr.Alias = a
			} else if p.at(tokIdent, "") {
				tr.Alias, _ = p.ident()
			}
			if len(sel.From) > 0 && tr.Join != JoinCross {
				if err := p.expectKw("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				tr.On = on
			}
			sel.From = append(sel.From, tr)
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				oi.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, oi)
			if !p.accept(tokOp, ",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
		if p.acceptKw("OFFSET") {
			o, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Offset = o
		} else if p.accept(tokOp, ",") {
			// MySQL LIMIT offset, count form.
			c, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Offset = sel.Limit
			sel.Limit = c
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(tokOp, "*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form: identifier '.' '*'
	if p.cur().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokOp && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokOp && p.toks[p.pos+2].text == "*" {
		tbl := p.next().text
		p.next()
		p.next()
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		a, err := p.ident()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if p.at(tokIdent, "") {
		item.Alias, _ = p.ident()
	}
	return item, nil
}

// Expression parsing: precedence climbing.
// OR < AND < NOT < comparison/IN/LIKE/BETWEEN/IS < add < mul < unary < primary.

func (p *parser) parseExpr() (*Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (*Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprBinary, Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (*Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprBinary, Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (*Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ExprUnary, Op: "NOT", Left: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (*Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokOp, "="), p.at(tokOp, "<"), p.at(tokOp, ">"),
			p.at(tokOp, "<="), p.at(tokOp, ">="), p.at(tokOp, "<>"), p.at(tokOp, "!="):
			op := p.next().text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			left = &Expr{Kind: ExprBinary, Op: op, Left: left, Right: right}
		case p.atKw("LIKE"), p.atKw("IN"), p.atKw("BETWEEN"), p.atKw("IS"), p.atKw("NOT"):
			not := p.acceptKw("NOT")
			switch {
			case p.acceptKw("LIKE"):
				right, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				left = &Expr{Kind: ExprBinary, Op: "LIKE", Left: left, Right: right, Not: not}
			case p.acceptKw("IN"):
				if _, err := p.expect(tokOp, "("); err != nil {
					return nil, err
				}
				var list []*Expr
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					list = append(list, e)
					if !p.accept(tokOp, ",") {
						break
					}
				}
				if _, err := p.expect(tokOp, ")"); err != nil {
					return nil, err
				}
				left = &Expr{Kind: ExprIn, Left: left, List: list, Not: not}
			case p.acceptKw("BETWEEN"):
				low, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				if err := p.expectKw("AND"); err != nil {
					return nil, err
				}
				high, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				left = &Expr{Kind: ExprBetween, Left: left, Low: low, High: high, Not: not}
			case !not && p.acceptKw("IS"):
				isNot := p.acceptKw("NOT")
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				left = &Expr{Kind: ExprIsNull, Left: left, Not: isNot}
			default:
				return nil, p.errorf("expected LIKE, IN or BETWEEN after NOT")
			}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseAdd() (*Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.at(tokOp, "+"), p.at(tokOp, "-"), p.at(tokOp, "||"):
			op = p.next().text
		default:
			return left, nil
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprBinary, Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMul() (*Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.at(tokOp, "*"), p.at(tokOp, "/"), p.at(tokOp, "%"):
			op = p.next().text
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Expr{Kind: ExprBinary, Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (*Expr, error) {
	if p.accept(tokOp, "-") {
		// -9223372036854775808 is an int64 only with its sign.
		if t := p.cur(); t.kind == tokNumber && !strings.ContainsAny(t.text, ".eE") {
			if i, err := strconv.ParseInt("-"+t.text, 10, 64); err == nil {
				p.pos++
				return &Expr{Kind: ExprLiteral, Lit: sqlval.Int(i)}, nil
			}
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if e.Kind == ExprLiteral {
			// Fold -literal so INSERT VALUES stay literal-only.
			switch e.Lit.K {
			case sqlval.KindInt:
				return &Expr{Kind: ExprLiteral, Lit: sqlval.Int(-e.Lit.I)}, nil
			case sqlval.KindFloat:
				return &Expr{Kind: ExprLiteral, Lit: sqlval.Float(-e.Lit.Float64())}, nil
			}
		}
		return &Expr{Kind: ExprUnary, Op: "-", Left: e}, nil
	}
	p.accept(tokOp, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Expr{Kind: ExprLiteral, Lit: sqlval.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Expr{Kind: ExprLiteral, Lit: sqlval.Int(i)}, nil
	case tokString:
		p.pos++
		return &Expr{Kind: ExprLiteral, Lit: sqlval.String_(t.text)}, nil
	case tokParam:
		p.pos++
		e := &Expr{Kind: ExprParam, ParamIdx: p.nparams}
		p.nparams++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.pos++
			return &Expr{Kind: ExprLiteral, Lit: sqlval.Null}, nil
		case "TRUE":
			p.pos++
			return &Expr{Kind: ExprLiteral, Lit: sqlval.Bool(true)}, nil
		case "FALSE":
			p.pos++
			return &Expr{Kind: ExprLiteral, Lit: sqlval.Bool(false)}, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokOp:
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokOp, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "*" {
			p.pos++
			return &Expr{Kind: ExprStar}, nil
		}
		return nil, p.errorf("unexpected %q in expression", t.text)
	case tokIdent:
		name := p.next().text
		if p.accept(tokOp, "(") {
			return p.parseCall(name)
		}
		if p.accept(tokOp, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &Expr{Kind: ExprColumn, Table: strings.ToLower(name), Column: strings.ToLower(col)}, nil
		}
		// The SQL-standard bare forms are the same macro calls as
		// CURRENT_TIMESTAMP() and CURRENT_DATE().
		if strings.EqualFold(name, "CURRENT_TIMESTAMP") || strings.EqualFold(name, "CURRENT_DATE") {
			return &Expr{Kind: ExprFunc, Func: strings.ToUpper(name)}, nil
		}
		return &Expr{Kind: ExprColumn, Column: strings.ToLower(name)}, nil
	}
	return nil, p.errorf("unexpected token %q", t.text)
}

func (p *parser) parseCall(name string) (*Expr, error) {
	e := &Expr{Kind: ExprFunc, Func: strings.ToUpper(name)}
	if p.accept(tokOp, ")") {
		return e, nil
	}
	e.Distinct = p.acceptKw("DISTINCT")
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		e.Args = append(e.Args, arg)
		if !p.accept(tokOp, ",") {
			break
		}
	}
	if _, err := p.expect(tokOp, ")"); err != nil {
		return nil, err
	}
	return e, nil
}
