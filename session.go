package cjdbc

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlval"
)

// Rows is a fully materialized result set. Like the paper's serialized
// ResultSet, it is browsed locally by the client after one round trip.
type Rows struct {
	Columns      []string
	RowsAffected int64
	LastInsertID int64
	rows         [][]sqlval.Value
	pos          int
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.rows) }

// Next advances the cursor, returning false past the last row.
func (r *Rows) Next() bool {
	if r.pos >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Reset rewinds the cursor.
func (r *Rows) Reset() { r.pos = 0 }

// Scan copies the current row into dest pointers (*int64, *float64,
// *string, *bool, *time.Time, *[]byte, or *any). A *[]byte receives a copy
// of a BLOB, so writing to it cannot change the result.
func (r *Rows) Scan(dest ...any) error {
	if r.pos == 0 || r.pos > len(r.rows) {
		return errors.New("cjdbc: Scan called without Next")
	}
	row := r.rows[r.pos-1]
	if len(dest) > len(row) {
		return fmt.Errorf("cjdbc: Scan of %d values into row of %d columns", len(dest), len(row))
	}
	for i, d := range dest {
		v := row[i]
		switch p := d.(type) {
		case *int64:
			n, err := v.AsInt()
			if err != nil {
				return err
			}
			*p = n
		case *int:
			n, err := v.AsInt()
			if err != nil {
				return err
			}
			*p = int(n)
		case *float64:
			f, err := v.AsFloat()
			if err != nil {
				return err
			}
			*p = f
		case *string:
			*p = v.AsString()
		case *bool:
			*p = v.AsBool()
		case *time.Time:
			*p = time.Time{}
			if v.K == sqlval.KindTime {
				*p = v.Time()
			}
		case *[]byte:
			*p = nil
			if v.K == sqlval.KindBytes {
				*p = v.Bytes()
			}
		case *any:
			*p = valueToAny(v)
		default:
			return fmt.Errorf("cjdbc: unsupported Scan destination %T", d)
		}
	}
	return nil
}

// Value returns the current row's i-th column as a generic value; a BLOB
// comes back as a copy.
func (r *Rows) Value(i int) any {
	if r.pos == 0 || r.pos > len(r.rows) {
		return nil
	}
	return valueToAny(r.rows[r.pos-1][i])
}

func valueToAny(v sqlval.Value) any {
	switch v.K {
	case sqlval.KindNull:
		return nil
	case sqlval.KindInt:
		return v.I
	case sqlval.KindFloat:
		return v.Float64()
	case sqlval.KindBool:
		return v.I != 0
	case sqlval.KindTime:
		return v.Time()
	case sqlval.KindBytes:
		return v.Bytes()
	default:
		return v.S
	}
}

// argVector is a session's parameter vector, refilled by every call: the
// layers below copy whatever outlives the call (a write the controller
// answers early owns a copy), so one vector serves them all. It is cleared
// after each call, and a vector longer than keptArgs is not kept.
type argVector struct{ vals []sqlval.Value }

const keptArgs = 64

// fill converts driver arguments to SQL values in the vector.
func (a *argVector) fill(args []any) ([]sqlval.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	a.vals = slices.Grow(a.vals[:0], len(args))[:len(args)]
	if err := toValues(a.vals, args); err != nil {
		a.release()
		return nil, err
	}
	return a.vals, nil
}

// release clears the vector, so a finished call's values are not kept
// alive by it.
func (a *argVector) release() {
	if cap(a.vals) > keptArgs {
		a.vals = nil
	}
	clear(a.vals)
}

// toValues converts driver arguments to SQL values, into out.
func toValues(out []sqlval.Value, args []any) error {
	for i, a := range args {
		switch x := a.(type) {
		case nil:
			out[i] = sqlval.Null
		case int:
			out[i] = sqlval.Int(int64(x))
		case int32:
			out[i] = sqlval.Int(int64(x))
		case int64:
			out[i] = sqlval.Int(x)
		case uint64:
			out[i] = sqlval.Int(int64(x))
		case float32:
			out[i] = sqlval.Float(float64(x))
		case float64:
			out[i] = sqlval.Float(x)
		case string:
			out[i] = sqlval.String_(x)
		case bool:
			out[i] = sqlval.Bool(x)
		case time.Time:
			out[i] = sqlval.Time(x)
		case []byte:
			out[i] = sqlval.Bytes(x)
		case sqlval.Value:
			out[i] = x
		default:
			return fmt.Errorf("cjdbc: unsupported argument type %T", a)
		}
	}
	return nil
}

// NewRows wraps a raw backend result into the public Rows type. It exists
// for the benchmark module's bare-engine baseline; application code receives Rows from
// Session methods and never needs it.
func NewRows(res *backend.Result) *Rows { return wrapResult(res) }

// wrapResult wraps an in-process result. The engine shares one header among
// the results of a statement; the caller gets its own copy.
func wrapResult(res *backend.Result) *Rows {
	r := wrapOwned(res)
	r.Columns = slices.Clone(r.Columns)
	return r
}

// wrapOwned wraps a result whose header belongs to it alone, as a decoded
// wire result's does.
func wrapOwned(res *backend.Result) *Rows {
	if res == nil {
		return &Rows{}
	}
	return &Rows{
		Columns:      res.Columns,
		RowsAffected: res.RowsAffected,
		LastInsertID: res.LastInsertID,
		rows:         res.Rows,
	}
}

// Session is one client connection to a virtual database, local or remote,
// the analogue of a JDBC Connection. Sessions are not safe for concurrent
// use; open one per goroutine.
type Session interface {
	// Exec runs any SQL statement with optional ? parameters.
	Exec(sql string, args ...any) (*Rows, error)
	// Query is Exec restricted to reads, for readability at call sites.
	Query(sql string, args ...any) (*Rows, error)
	// Begin/Commit/Rollback demarcate a transaction.
	Begin() error
	Commit() error
	Rollback() error
	// Close releases the session, rolling back any open transaction.
	Close() error
}

// OpenSession opens an in-process session on the virtual database (the
// type-4 "local" flavour of the driver).
func (v *VirtualDatabase) OpenSession(user, password string) (Session, error) {
	s, err := v.inner.NewSession(user, password)
	if err != nil {
		return nil, err
	}
	return &localSession{s: s}, nil
}

type localSession struct {
	s interface {
		Exec(sql string, params []sqlval.Value) (*backend.Result, error)
		Close()
	}
	args argVector
}

func (l *localSession) Exec(sql string, args ...any) (*Rows, error) {
	params, err := l.args.fill(args)
	if err != nil {
		return nil, err
	}
	res, err := l.s.Exec(sql, params)
	l.args.release()
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

func (l *localSession) Query(sql string, args ...any) (*Rows, error) { return l.Exec(sql, args...) }
func (l *localSession) Begin() error                                 { _, err := l.Exec("BEGIN"); return err }
func (l *localSession) Commit() error                                { _, err := l.Exec("COMMIT"); return err }
func (l *localSession) Rollback() error                              { _, err := l.Exec("ROLLBACK"); return err }
func (l *localSession) Close() error                                 { l.s.Close(); return nil }
