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

// LockReserver is implemented by connections that support queueing a write
// lock request in cluster submission order ahead of executing the
// statement. The in-process engine supports it; remote drivers rely on
// their database's own lock queueing.
type LockReserver interface {
	ReserveWriteLock(table string)
}

// TicketReserver is implemented by connections whose enqueue-time lock
// tickets can report their grant asynchronously. The backend's auto-commit
// worker pool uses it to pre-bind a connection per write at enqueue time and
// park the task until the engine grants its ticket, so a write queued behind
// a transaction's lock never occupies a pool worker while it waits.
type TicketReserver interface {
	// ReserveWriteLockNotify queues an exclusive lock ticket for table and
	// tells n exactly once when the ticket is granted (possibly
	// synchronously) or dropped unconsumed.
	ReserveWriteLockNotify(table string, n TicketNotifier)
}

// TicketNotifier is told that a lock ticket was granted or dropped. A write
// task is its own notifier, so reserving a ticket allocates no callback.
type TicketNotifier interface {
	TicketGranted()
}

// ConnResetter is implemented by connections that can be returned to a
// clean baseline state — open transaction rolled back, locks and lock
// tickets released, session-local state dropped — without closing. The
// backend's auto-commit write path uses it to keep a free-list of dedicated
// pre-bound connections instead of opening and closing one per write.
type ConnResetter interface {
	// Reset restores the connection to its just-opened state. A non-nil
	// error means the connection is unusable and must be closed instead.
	Reset() error
}

// ConnKiller is implemented by connections that can be marked dead from
// another goroutine: an in-flight statement aborts (including one parked in
// a lock wait) and subsequent statements fail, while rollback and close
// still work so the owner goroutine can tear the connection down. The
// backend's crash-consistent disable kills each in-flight transaction's
// connection, then drives a rollback through the transaction's own worker.
type ConnKiller interface {
	Kill()
}

// SchemaProvider is implemented by drivers that can describe their tables,
// the DatabaseMetaData facility of the paper used for dynamic schema
// gathering and checkpoint dumps.
type SchemaProvider interface {
	TableNames() ([]string, error)
	TableSchema(name string) (*sqlengine.Schema, error)
	SnapshotTable(name string) (*sqlengine.Schema, [][]sqlval.Value, error)
	Indexes(name string) ([]*sqlparser.CreateIndex, error)
}

// EngineDriver is the native driver for the in-process sqlengine backend.
type EngineDriver struct {
	Engine *sqlengine.Engine
}

var _ Driver = (*EngineDriver)(nil)
var _ SchemaProvider = (*EngineDriver)(nil)

// Open creates a new engine session.
func (d *EngineDriver) Open() (Conn, error) {
	return &engineConn{s: d.Engine.NewSession()}, nil
}

// TableNames lists the engine's tables.
func (d *EngineDriver) TableNames() ([]string, error) { return d.Engine.TableNames(), nil }

// TableSchema returns a table's schema.
func (d *EngineDriver) TableSchema(name string) (*sqlengine.Schema, error) {
	return d.Engine.TableSchema(name)
}

// SnapshotTable returns a table's schema and rows for dumps.
func (d *EngineDriver) SnapshotTable(name string) (*sqlengine.Schema, [][]sqlval.Value, error) {
	return d.Engine.SnapshotTable(name)
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

// ReserveWriteLock queues a write lock ticket in submission order.
func (c *engineConn) ReserveWriteLock(table string) { c.s.ReserveWriteLock(table) }

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
