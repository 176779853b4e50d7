package main

import (
	"fmt"
	"time"

	"cjdbc"
	"cjdbc/bench/hist"
)

// timedSession is the client side of every workload: it wraps the session a
// client uses, times each Exec/Query/Begin/Commit/Rollback call as one
// request, and times BEGIN sent to COMMIT acknowledged as one transaction.
// It allocates nothing per request, so allocs_per_req is the program's.
type timedSession struct {
	inner cjdbc.Session
	base  time.Time
	lat   hist.H // one value per request, ns
	txn   hist.H // one value per committed explicit transaction, ns

	attempted, failed int64
	busyNs            int64 // sum of request latencies
	txStart           int64
	inTx              bool
	firstErr          error

	tr  *tracer // non-nil in the traced run: each request is a root span
	req uint32
}

func newTimedSession(inner cjdbc.Session, tr *tracer) *timedSession {
	s := &timedSession{inner: inner, base: time.Now(), tr: tr}
	if tr != nil {
		s.base = tr.base
	}
	return s
}

func (s *timedSession) now() int64 { return int64(time.Since(s.base)) }

// begin opens a request; with a tracer it also publishes the request id the
// wrappers tag their spans with.
func (s *timedSession) begin() int64 {
	if s.tr != nil {
		s.req++
		s.tr.req.Store(s.req)
	}
	return s.now()
}

func (s *timedSession) done(t0 int64, err error) int64 {
	t1 := s.now()
	if s.tr != nil {
		s.tr.add(spanRequest, noBackend, t0)
	}
	s.attempted++
	s.lat.Record(t1 - t0)
	s.busyNs += t1 - t0
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
	return t1
}

func (s *timedSession) Exec(sql string, args ...any) (*cjdbc.Rows, error) {
	t0 := s.begin()
	rows, err := s.inner.Exec(sql, args...)
	s.done(t0, err)
	return rows, err
}

func (s *timedSession) Query(sql string, args ...any) (*cjdbc.Rows, error) {
	return s.Exec(sql, args...)
}

func (s *timedSession) Begin() error {
	t0 := s.begin()
	err := s.inner.Begin()
	s.done(t0, err)
	s.txStart, s.inTx = t0, err == nil
	return err
}

func (s *timedSession) Commit() error {
	t0 := s.begin()
	err := s.inner.Commit()
	t1 := s.done(t0, err)
	if s.inTx && err == nil {
		s.txn.Record(t1 - s.txStart)
	}
	s.inTx = false
	return err
}

func (s *timedSession) Rollback() error {
	t0 := s.begin()
	err := s.inner.Rollback()
	s.done(t0, err)
	s.inTx = false
	return err
}

func (s *timedSession) Close() error { return s.inner.Close() }

// opClient replays one generated stream through a timed session and checks
// every read against the row its key implies.
type opClient struct {
	sess *timedSession
	ops  []op
	// exactV: reads must return the loaded v (no writer in the workload);
	// otherwise v only grows from it.
	exactV bool

	checkFailed int64
	firstBad    string

	// Scan targets live here, not on the stack, so checking a row does not
	// allocate.
	id, v int64
	pad   string
	dest  []any
}

func newOpClient(sess *timedSession, ops []op, exactV bool) *opClient {
	c := &opClient{sess: sess, ops: ops, exactV: exactV}
	c.dest = []any{&c.id, &c.v, &c.pad}
	return c
}

func (c *opClient) run() {
	for i := range c.ops {
		o := &c.ops[i]
		switch o.kind {
		case opBegin:
			_ = c.sess.Begin()
		case opCommit:
			_ = c.sess.Commit()
		case opRead, opRange:
			rows, err := c.sess.Exec(o.sql, o.args...)
			if err == nil {
				c.checkRead(o, rows)
			}
		default:
			rows, err := c.sess.Exec(o.sql, o.args...)
			if err == nil && rows.RowsAffected != 1 {
				c.bad(o, "affected %d rows, want 1", rows.RowsAffected)
			}
		}
	}
}

func (c *opClient) bad(o *op, format string, a ...any) {
	c.checkFailed++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf("%s %v: ", o.sql, o.args) + fmt.Sprintf(format, a...)
	}
}

func (c *opClient) checkRead(o *op, rows *cjdbc.Rows) {
	want := 1
	if o.kind == opRange {
		want = rangeRows
	}
	if rows.Len() != want {
		c.bad(o, "%d rows, want %d", rows.Len(), want)
		return
	}
	for id := o.id; rows.Next(); id++ {
		if err := rows.Scan(c.dest...); err != nil {
			c.bad(o, "scan: %v", err)
			return
		}
		v0 := initialV(id)
		if c.id != id || c.pad != loadedPad[o.table][id] || c.v < v0 || (c.exactV && c.v != v0) {
			c.bad(o, "got row (%d, %d, %q) for id %d", c.id, c.v, c.pad, id)
			return
		}
	}
}
