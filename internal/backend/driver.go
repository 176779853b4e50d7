// Package backend abstracts one database backend of a virtual database: a
// native driver, a connection manager (pool), an enable/disable state
// machine, a conflict-ordered write worker pool that preserves the
// cluster-wide order of conflicting writes — via enqueue-time lock tickets
// on pre-bound connections — while letting disjoint-table writes flow
// concurrently, and a scripted fault plan that makes a replica fail, crash
// or run slow.
package backend

import (
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// Result is a fully materialized statement result, the analogue of the
// serialized JDBC ResultSet the C-JDBC driver ships to clients. Its fields
// match sqlengine.Result's one for one, so the in-process driver converts
// the engine's result instead of copying it.
type Result struct {
	Columns      []string
	Rows         [][]sqlval.Value
	RowsAffected int64
	LastInsertID int64
}

// Conn is one connection to a database, the native-driver connection of the
// paper. Connections are not safe for concurrent use.
type Conn interface {
	// Exec runs one statement. st may be nil, in which case the
	// implementation parses sql itself. A *sqlparser.Bound carries the
	// statement's parameter vector; sql is then the bound text the recovery
	// log keeps (writes) or the statement's own text (reads).
	Exec(st sqlparser.Statement, sql string) (*Result, error)
	// Begin/Commit/Rollback demarcate a transaction on this connection.
	Begin() error
	Commit() error
	Rollback() error
	Close() error
}

// Driver opens connections to one database, as a native JDBC driver would.
type Driver interface {
	Open() (Conn, error)
}

// Reserving is the connection of a driver that reserves lock tickets: the
// in-process engine. Every other driver is plain — its connections are only
// Conn, and the backend runs its writes with execution-time locking on pooled
// connections, relying on the database's own lock queueing, as C-JDBC did.
// A reserving connection makes three promises:
//
//   - ReserveWriteLockNotify queues an exclusive lock ticket for table in
//     call order, ahead of executing the statement, and tells n exactly once
//     when the ticket is granted (possibly synchronously) or dropped
//     unconsumed. A nil n asks for no notification. The backend reserves
//     every write in cluster submission order, so conflicting writes apply
//     in that order on every replica.
//   - Reset restores the just-opened state — open transaction rolled back,
//     locks and tickets released, session-local state dropped — without
//     closing, so an auto-commit write's dedicated connection is reused. A
//     non-nil error means the connection is unusable and must be closed.
//   - Kill may be called from another goroutine: an in-flight statement
//     aborts (including one parked in a lock wait) and later statements
//     fail, while Rollback and Close still work. A crash-consistent disable
//     kills each in-flight transaction's connection, then rolls it back
//     through the transaction's own worker.
type Reserving interface {
	Conn
	ReserveWriteLockNotify(table string, n TicketNotifier)
	Reset() error
	Kill()
}

// TicketNotifier is told that a lock ticket was granted or dropped. A write
// task is its own notifier, so reserving a ticket allocates no callback.
type TicketNotifier interface {
	TicketGranted()
}

// The four interfaces Reserving replaced, kept only as names of it because
// the benchmark module still spells them. They go once it says Reserving.
type (
	LockReserver   = Reserving
	TicketReserver = Reserving
	ConnResetter   = Reserving
	ConnKiller     = Reserving
)

// SchemaProvider is implemented by drivers that can describe their tables,
// the DatabaseMetaData facility of the paper used for dynamic schema
// gathering and checkpoint dumps. It speaks SQL: a table is the CREATE
// TABLE that recreates it, plus its rows in that statement's column order.
type SchemaProvider interface {
	TableNames() ([]string, error)
	SnapshotTable(name string) (*sqlparser.CreateTable, [][]sqlval.Value, error)
	Indexes(name string) ([]*sqlparser.CreateIndex, error)
}

// EngineDriver is the native driver for the in-process sqlengine backend.
type EngineDriver struct {
	Engine *sqlengine.Engine
}

var _ Driver = (*EngineDriver)(nil)
var _ SchemaProvider = (*EngineDriver)(nil)
var _ Reserving = (*engineConn)(nil)

// Open creates a new engine session.
func (d *EngineDriver) Open() (Conn, error) {
	return &engineConn{s: d.Engine.NewSession()}, nil
}

// TableNames lists the engine's tables.
func (d *EngineDriver) TableNames() ([]string, error) { return d.Engine.TableNames(), nil }

// SnapshotTable returns the CREATE TABLE of a table and its rows, for dumps.
func (d *EngineDriver) SnapshotTable(name string) (*sqlparser.CreateTable, [][]sqlval.Value, error) {
	schema, rows, err := d.Engine.SnapshotTable(name)
	if err != nil {
		return nil, nil, err
	}
	create := &sqlparser.CreateTable{Table: schema.Name, Columns: make([]sqlparser.ColumnDef, len(schema.Columns))}
	for i, c := range schema.Columns {
		create.Columns[i] = sqlparser.ColumnDef(c)
	}
	return create, rows, nil
}

// Indexes returns a table's secondary indexes for dumps.
func (d *EngineDriver) Indexes(name string) ([]*sqlparser.CreateIndex, error) {
	return d.Engine.Indexes(name)
}

type engineConn struct {
	s *sqlengine.Session
}

func (c *engineConn) Exec(st sqlparser.Statement, sql string) (*Result, error) {
	var res *sqlengine.Result
	var err error
	if st != nil {
		res, err = c.s.Exec(st)
	} else {
		res, err = c.s.ExecSQL(sql)
	}
	if err != nil {
		return nil, err
	}
	return (*Result)(res), nil
}

// ReserveWriteLockNotify queues a write lock ticket and reports its grant.
func (c *engineConn) ReserveWriteLockNotify(table string, n TicketNotifier) {
	c.s.ReserveWriteLockNotify(table, n)
}

// Reset returns the session to its just-opened state for free-list reuse.
func (c *engineConn) Reset() error { c.s.Reset(); return nil }

// Kill marks the session dead; see sqlengine.Session.Kill.
func (c *engineConn) Kill() { c.s.Kill() }

func (c *engineConn) Begin() error    { return c.s.Begin() }
func (c *engineConn) Commit() error   { return c.s.Commit() }
func (c *engineConn) Rollback() error { return c.s.Rollback() }
func (c *engineConn) Close() error    { c.s.Close(); return nil }
