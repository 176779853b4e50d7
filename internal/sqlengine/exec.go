package sqlengine

import (
	"slices"
	"strings"
	"time"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Result is the outcome of one statement: either a row set (reads) or an
// affected-row count (writes). It is the engine-side analogue of a JDBC
// ResultSet plus update count.
type Result struct {
	Columns      []string
	Rows         [][]sqlval.Value
	RowsAffected int64
	LastInsertID int64
}

// ExecSQL parses and executes a statement.
func (s *Session) ExecSQL(sql string) (*Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Exec(st)
}

// Exec executes a parsed statement. Statements outside an explicit
// transaction auto-commit; on error their partial effects are undone. A
// *sqlparser.Bound executes its shared tree with each placeholder read from
// its vector at evaluation, so the tree is never copied or written.
//
// The statement bodies are called directly, not through closures: every
// frame on this path is paid again by each transaction's fresh backend
// worker goroutine, whose stack grows by copying.
func (s *Session) Exec(st sqlparser.Statement) (*Result, error) {
	st, params := sqlparser.Unwrap(st)
	if s.closed {
		return nil, ErrClosed
	}
	if s.killed.Load() {
		return nil, ErrKilled
	}
	e := s.engine
	if e.closed.Load() {
		return nil, ErrClosed
	}
	sh := s.statShard()
	sh.statements.Add(1)
	switch sqlparser.Classify(st) {
	case sqlparser.ClassRead:
		sh.reads.Add(1)
	case sqlparser.ClassWrite:
		sh.writes.Add(1)
	}

	switch st.(type) {
	case *sqlparser.Begin:
		if err := s.Begin(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.Commit:
		if err := s.Commit(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.Rollback:
		if err := s.Rollback(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.ShowTables:
		res := &Result{Columns: []string{"table_name"}}
		for _, n := range s.engine.TableNames() {
			res.Rows = append(res.Rows, []sqlval.Value{sqlval.String_(n)})
		}
		return res, nil
	}

	var res *Result
	var err error
	s.params = params
	switch t := st.(type) {
	case *sqlparser.CreateTable:
		res, err = s.execCreateTable(t)
	case *sqlparser.DropTable:
		res, err = s.execDropTable(t)
	case *sqlparser.CreateIndex:
		res, err = s.execCreateIndex(t)
	case *sqlparser.DropIndex:
		res, err = s.execDropIndex(t)
	case *sqlparser.Insert:
		res, err = s.execInsert(t)
	case *sqlparser.Update:
		res, err = s.execChange(t.Table, t.Bind, t.Where, t.Set)
	case *sqlparser.Delete:
		res, err = s.execChange(t.Table, t.Bind, t.Where, nil)
	case *sqlparser.Select:
		res, err = s.execSelect(t)
	default:
		s.params = nil
		return nil, errf("unsupported statement %T", st)
	}
	s.params, s.like = nil, truncated(s.like)
	if err := s.endStatement(err); err != nil {
		return nil, err
	}
	return res, nil
}

// bindExpr returns a copy of e with each placeholder params covers replaced
// by its value, or e itself when the statement has no vector: a column
// default outlives the statement whose vector bound it, and the tree is
// shared.
func bindExpr(e *sqlparser.Expr, params []sqlval.Value) *sqlparser.Expr {
	if e == nil || len(params) == 0 {
		return e
	}
	e = e.Clone()
	e.Walk(func(n *sqlparser.Expr) {
		if v, ok := n.LitValue(params); ok && n.Kind == sqlparser.ExprParam {
			*n = sqlparser.Expr{Kind: sqlparser.ExprLiteral, Lit: v}
		}
	})
	return e
}

func (s *Session) execCreateTable(ct *sqlparser.CreateTable) (*Result, error) {
	name := strings.ToLower(ct.Table)
	e := s.engine

	var schema *Schema
	var rows [][]sqlval.Value
	if ct.AsSelect != nil {
		// Evaluate the SELECT first (a snapshot read, no table lock), then create.
		sel, err := s.execSelect(ct.AsSelect)
		if err != nil {
			return nil, err
		}
		schema = &Schema{Name: name}
		for i, col := range sel.Columns {
			kind := sqlval.KindString
			for _, r := range sel.Rows {
				if !r[i].IsNull() {
					kind = r[i].K
					break
				}
			}
			schema.Columns = append(schema.Columns, Column{Name: strings.ToLower(col), Type: kind})
		}
		rows = sel.Rows
	} else {
		schema = &Schema{Name: name}
		for _, cd := range ct.Columns {
			schema.Columns = append(schema.Columns, Column{
				Name:          strings.ToLower(cd.Name),
				Type:          cd.Type,
				NotNull:       cd.NotNull,
				PrimaryKey:    cd.PrimaryKey,
				AutoIncrement: cd.AutoIncrement,
				Default:       bindExpr(cd.Default, s.params),
			})
		}
		for _, pk := range ct.PrimaryKey {
			idx := schema.ColumnIndex(pk)
			if idx < 0 {
				return nil, errf("PRIMARY KEY column %q not in table %s", pk, name)
			}
			schema.Columns[idx].PrimaryKey = true
			schema.Columns[idx].NotNull = true
		}
	}

	if ct.Temporary {
		// Temporary tables are session-private: no lock needed, and any
		// reservation placed by the dispatcher must be dropped.
		s.engine.locks.cancelReservations(s, name)
	} else {
		if err := s.lockTable(name, s.lockDeadline()); err != nil {
			return nil, err
		}
	}
	// Populate the table before publishing it: once it is visible in the
	// catalog, concurrent readers may scan it, so no unlocked mutation can
	// follow publication. Rows are stamped with epoch 0 — visible to every
	// snapshot — which is sound precisely because nobody can hold a ref to
	// the table before it is published; rollback undoes the whole CREATE.
	tbl := newTable(schema)
	for _, r := range rows {
		if _, _, err := tbl.insertRow(r, 0); err != nil {
			return nil, err
		}
	}
	// A temporary table is published into the session's own namespace,
	// which no other session reads and which is swapped atomically, so the
	// shared catalog lock resolveLocked needs suffices: the CREATE neither
	// waits for other sessions' SELECTs nor blocks them. A permanent table
	// changes the catalog and takes it exclusively.
	s.lockCatalog(ct.Temporary)
	defer s.unlockCatalog(ct.Temporary)
	if s.resolveLocked(name) != nil {
		if ct.IfNotExists {
			return &Result{}, nil
		}
		return nil, errf("table %q already exists", name)
	}
	if ct.Temporary {
		s.tempSet(name, tbl)
	} else {
		e.tables[name] = tbl
		e.catalogEpoch++
	}
	s.undo = append(s.undo, undoOp{kind: 'c', table: name, tbl: tbl})
	return &Result{RowsAffected: int64(len(rows))}, nil
}

// lockCatalog takes the catalog lock: shared when the session's own
// temporary namespace is all a statement changes, exclusively otherwise.
func (s *Session) lockCatalog(temporary bool) {
	if temporary {
		s.engine.mu.RLock(s.shard)
	} else {
		s.engine.mu.Lock()
	}
}

// unlockCatalog releases what lockCatalog(temporary) took.
func (s *Session) unlockCatalog(temporary bool) {
	if temporary {
		s.engine.mu.RUnlock(s.shard)
	} else {
		s.engine.mu.Unlock()
	}
}

func (s *Session) execDropTable(dt *sqlparser.DropTable) (*Result, error) {
	name := strings.ToLower(dt.Table)
	e := s.engine
	_, isTemp := s.tempGet(name)
	if isTemp {
		s.engine.locks.cancelReservations(s, name)
	} else {
		if err := s.lockTable(name, s.lockDeadline()); err != nil {
			return nil, err
		}
	}
	// Only this session's statements change its temporary namespace, so a
	// temporary table found above is still there.
	s.lockCatalog(isTemp)
	defer s.unlockCatalog(isTemp)
	if isTemp {
		// Temporary tables are session-private and non-durable; dropping
		// one is not transactional (it cannot be observed by anyone else).
		s.tempDelete(name)
		return &Result{}, nil
	}
	t, ok := e.tables[name]
	if !ok {
		if dt.IfExists {
			return &Result{}, nil
		}
		return nil, &TableNotFoundError{Table: name}
	}
	delete(e.tables, name)
	e.catalogEpoch++
	s.undo = append(s.undo, undoOp{kind: 'r', table: name, tbl: t})
	return &Result{}, nil
}

func (s *Session) execCreateIndex(ci *sqlparser.CreateIndex) (*Result, error) {
	name := strings.ToLower(ci.Table)
	if err := s.lockTable(name, s.lockDeadline()); err != nil {
		return nil, err
	}
	e := s.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	t := s.resolveLocked(name)
	if t == nil {
		return nil, &TableNotFoundError{Table: name}
	}
	var cols []int
	for _, c := range ci.Columns {
		idx := t.schema.ColumnIndex(c)
		if idx < 0 {
			return nil, errf("unknown column %q in index %s", c, ci.Name)
		}
		cols = append(cols, idx)
	}
	ixName := strings.ToLower(ci.Name)
	if err := t.addIndex(ixName, cols, ci.Unique); err != nil {
		return nil, err
	}
	e.catalogEpoch++
	s.undo = append(s.undo, undoOp{kind: 'x', table: name, index: ixName})
	return &Result{}, nil
}

func (s *Session) execDropIndex(di *sqlparser.DropIndex) (*Result, error) {
	name := strings.ToLower(di.Table)
	if err := s.lockTable(name, s.lockDeadline()); err != nil {
		return nil, err
	}
	e := s.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	t := s.resolveLocked(name)
	if t == nil {
		return nil, &TableNotFoundError{Table: name}
	}
	ixName := strings.ToLower(di.Name)
	if _, ok := t.indexes[ixName]; !ok {
		return nil, errf("index %q does not exist on %s", di.Name, name)
	}
	t.idxMu.Lock()
	delete(t.indexes, ixName)
	t.idxMu.Unlock()
	e.catalogEpoch++
	// Dropping an index is not undone (index rebuild on rollback is not
	// supported); like MySQL, DDL here is effectively auto-committing.
	return &Result{}, nil
}

// coerce converts v to the column's kind, returning an error when the value
// cannot represent the column type.
func coerce(v sqlval.Value, col *Column) (sqlval.Value, error) {
	if v.IsNull() {
		if col.NotNull && !col.AutoIncrement {
			return v, errf("NULL in NOT NULL column %q", col.Name)
		}
		return v, nil
	}
	switch col.Type {
	case sqlval.KindInt:
		i, err := v.AsInt()
		if err != nil {
			return v, err
		}
		return sqlval.Int(i), nil
	case sqlval.KindFloat:
		f, err := v.AsFloat()
		if err != nil {
			return v, err
		}
		return sqlval.Float(f), nil
	case sqlval.KindString:
		return sqlval.String_(v.AsString()), nil
	case sqlval.KindBool:
		return sqlval.Bool(v.AsBool()), nil
	case sqlval.KindTime:
		if v.K == sqlval.KindTime {
			return v, nil
		}
		t, err := parseTime(v.AsString())
		if err != nil {
			return v, err
		}
		return sqlval.Time(t), nil
	case sqlval.KindBytes:
		if v.K == sqlval.KindBytes {
			return v, nil
		}
		return sqlval.Bytes([]byte(v.AsString())), nil
	}
	return v, nil
}

func (s *Session) execInsert(ins *sqlparser.Insert) (*Result, error) {
	name := strings.ToLower(ins.Table)
	e := s.engine

	// INSERT ... SELECT reads first, from the statement's snapshot.
	var srcRows [][]sqlval.Value
	if ins.Query != nil {
		sel, err := s.execSelect(ins.Query)
		if err != nil {
			return nil, err
		}
		srcRows = sel.Rows
	}

	if err := s.lockTable(name, s.lockDeadline()); err != nil {
		return nil, err
	}
	// DML holds the engine lock shared (excluding DDL and undo replay) plus
	// this table's storage latch exclusive, so inserts into disjoint tables
	// run concurrently on one backend.
	e.mu.RLock(s.shard)
	defer e.mu.RUnlock(s.shard)
	b, err := s.bindInsert(ins, name)
	if err != nil {
		return nil, err
	}
	t := b.srcs[0].t
	t.store.Lock()
	defer t.store.Unlock()
	schema := t.schema
	colIdx := b.cols // statement columns' schema positions

	ev := &env{params: s.params}
	// set marks the columns the current row names explicitly; one slice
	// serves the whole statement.
	set := make([]bool, len(schema.Columns))
	// complete fills in what the statement left out of a row whose named
	// columns are in place — auto-increment values and defaults — and
	// coerces every column to its declared kind.
	complete := func(row []sqlval.Value) error {
		for i := range schema.Columns {
			col := &schema.Columns[i]
			if !set[i] || row[i].IsNull() {
				switch {
				case col.AutoIncrement && (!set[i] || row[i].IsNull()):
					t.autoInc++
					row[i] = sqlval.Int(t.autoInc)
					continue
				case !set[i] && t.defaults[i] != nil:
					dv, err := ev.eval(t.defaults[i])
					if err != nil {
						return err
					}
					row[i] = dv
				}
			}
			cv, err := coerce(row[i], col)
			if err != nil {
				return err
			}
			row[i] = cv
			if col.AutoIncrement && row[i].K == sqlval.KindInt && row[i].I > t.autoInc {
				t.autoInc = row[i].I
			}
		}
		return nil
	}

	autoIncBefore := t.autoInc
	var inserted int64
	var lastID int64
	n := len(ins.Rows)
	if ins.Query != nil {
		n = len(srcRows)
	}
	for r := 0; r < n; r++ {
		var width int
		if ins.Query != nil {
			width = len(srcRows[r])
		} else {
			width = len(ins.Rows[r])
		}
		if width != len(colIdx) {
			return nil, errf("INSERT into %s: %d values for %d columns", name, width, len(colIdx))
		}
		row := make([]sqlval.Value, len(schema.Columns))
		clear(set)
		for i, c := range colIdx {
			if ins.Query != nil {
				row[c] = srcRows[r][i]
			} else {
				v := ins.Rows[r][i].Lit
				if x := b.bound(r, i); x != nil {
					var err error
					if v, err = ev.eval(x); err != nil {
						return nil, err
					}
				}
				row[c] = v
			}
			set[c] = true
		}
		if err := complete(row); err != nil {
			return nil, err
		}
		ch, v, err := t.insertRow(row, s.stamp)
		if err != nil {
			return nil, err
		}
		s.undo = append(s.undo, undoOp{kind: 'i', table: name, ch: ch})
		s.dirty = append(s.dirty, v)
		inserted++
		// LastInsertID reports the auto-increment value when one was assigned.
		for i := range schema.Columns {
			if schema.Columns[i].AutoIncrement {
				lastID, _ = row[i].AsInt()
			}
		}
	}
	if t.autoInc != autoIncBefore {
		s.undo = append(s.undo, undoOp{kind: 'a', table: name, autoInc: autoIncBefore})
	}
	return &Result{RowsAffected: inserted, LastInsertID: lastID}, nil
}

// execChange runs an UPDATE, or a DELETE when set is nil, of table: under
// the table lock and the table's latch it pushes a new version onto every
// candidate chain whose writer view — the head, committed or this
// session's own — holds WHERE: the row with SET applied, or a tombstone.
// Either way the old image stays on the chain for older snapshots, and
// undo pops the new version.
func (s *Session) execChange(table string, slot *sqlparser.Bindings, where *sqlparser.Expr, set []sqlparser.Assignment) (*Result, error) {
	name := strings.ToLower(table)
	if err := s.lockTable(name, s.lockDeadline()); err != nil {
		return nil, err
	}
	e := s.engine
	e.mu.RLock(s.shard)
	defer e.mu.RUnlock(s.shard)
	b, err := s.bindWrite(slot, name, where, set)
	if err != nil {
		return nil, err
	}
	t := b.srcs[0].t
	t.store.Lock()
	defer t.store.Unlock()
	ev := &env{params: s.params, like: s.likes(b)}
	var affected int64
	for _, ch := range candidateRefs(e, t, b.conj, s.params) {
		row := ch.latestRow()
		if row == nil {
			continue
		}
		m, err := ev.holds(b.where, row)
		if err != nil {
			return nil, err
		}
		if !m {
			continue
		}
		op := undoOp{kind: 'd', table: name, ch: ch}
		var v *rowVersion
		if set == nil {
			v = t.deleteRow(ch, s.stamp)
		} else {
			// Copy-on-write: the stored version is immutable once
			// published, so the new image is built on a fresh slice.
			newRow := slices.Clone(row)
			for i, x := range b.set {
				val, err := ev.eval(x)
				if err != nil {
					return nil, err
				}
				if newRow[b.cols[i]], err = coerce(val, &t.schema.Columns[b.cols[i]]); err != nil {
					return nil, err
				}
			}
			if v, err = t.updateRow(ch, newRow, s.stamp); err != nil {
				return nil, err
			}
			op.kind = 'u'
		}
		s.undo = append(s.undo, op)
		s.dirty = append(s.dirty, v)
		affected++
	}
	return &Result{RowsAffected: affected}, nil
}

func parseTime(s string) (time.Time, error) {
	for _, layout := range []string{
		"2006-01-02 15:04:05", "2006-01-02T15:04:05", "2006-01-02",
		"2006-01-02 15:04:05.999999999",
	} {
		if tt, err := time.Parse(layout, s); err == nil {
			return tt, nil
		}
	}
	return time.Time{}, errf("cannot parse %q as timestamp", s)
}
