package main

import (
	"errors"
	"testing"

	"cjdbc"
	"cjdbc/internal/backend"
	"cjdbc/internal/sqlval"
)

// cannedSession answers the i-th request with the i-th prepared result and
// allocates nothing itself, so any allocation the test sees is the load
// generator's.
type cannedSession struct {
	replies []*cjdbc.Rows
	next    int
}

func (s *cannedSession) Exec(string, ...any) (*cjdbc.Rows, error) {
	r := s.replies[s.next%len(s.replies)]
	s.next++
	r.Reset()
	return r, nil
}
func (s *cannedSession) Query(sql string, args ...any) (*cjdbc.Rows, error) {
	return s.Exec(sql, args...)
}
func (s *cannedSession) Begin() error    { s.next++; return nil }
func (s *cannedSession) Commit() error   { s.next++; return nil }
func (s *cannedSession) Rollback() error { s.next++; return nil }
func (s *cannedSession) Close() error    { return nil }

// replyFor prepares the correct result of one generated request.
func replyFor(o op) *cjdbc.Rows {
	res := &backend.Result{Columns: []string{"id", "v", "pad"}}
	switch o.kind {
	case opRead, opRange:
		n := int64(1)
		if o.kind == opRange {
			n = rangeRows
		}
		for id := o.id; id < o.id+n; id++ {
			res.Rows = append(res.Rows, []sqlval.Value{sqlval.Int(id), sqlval.Int(initialV(id)), sqlval.String_(loadedPad[o.table][id])})
		}
	case opUpdate, opInsert:
		res.RowsAffected = 1
	}
	return cjdbc.NewRows(res)
}

// allocs_per_req is MemStats.Mallocs over requests, so it is the program's
// only if issuing, timing, recording and checking a request allocate nothing.
func TestLoadGeneratorAllocatesNothingPerRequest(t *testing.T) {
	for _, w := range workloads {
		if w.gen == nil {
			continue // tpcw_shopping's client is frozen workload input; the timed session under it is the same
		}
		for _, traced := range []bool{false, true} {
			ops := w.gen(clientRNG(1, 0), 0, 400)
			canned := &cannedSession{}
			for _, o := range ops {
				canned.replies = append(canned.replies, replyFor(o))
			}
			var tr *tracer
			if traced {
				tr = newTracer(1 << 20)
				tr.start()
			}
			c := newOpClient(newTimedSession(canned, tr), ops, w.exactV)
			perRun := testing.AllocsPerRun(10, func() {
				canned.next = 0
				c.run()
			})
			if perRun != 0 {
				t.Errorf("%s traced=%v: %.1f allocations per %d requests, want 0", w.name, traced, perRun, len(ops))
			}
			if c.checkFailed != 0 || c.sess.failed != 0 {
				t.Errorf("%s: %d checks and %d requests failed on correct replies: %s", w.name, c.checkFailed, c.sess.failed, c.firstBad)
			}
			if want := int64(11 * len(ops)); c.sess.attempted != want || c.sess.lat.Count() != uint64(want) {
				t.Errorf("%s: %d requests attempted and %d timed, want %d", w.name, c.sess.attempted, c.sess.lat.Count(), want)
			}
		}
	}
}

type failingSession struct{ cannedSession }

func (s *failingSession) Exec(string, ...any) (*cjdbc.Rows, error) {
	return nil, errors.New("boom")
}

// Every way a request can go wrong must reach the failure count.
func TestLoadGeneratorCountsFailuresAndWrongRows(t *testing.T) {
	ops := genPointRead(clientRNG(1, 0), 0, 50)
	failing := newOpClient(newTimedSession(&failingSession{}, nil), ops, true)
	failing.run()
	if failing.sess.failed != 50 || failing.sess.attempted != 50 || failing.sess.firstErr == nil {
		t.Errorf("failed %d of %d attempted, first error %v", failing.sess.failed, failing.sess.attempted, failing.sess.firstErr)
	}

	wrong := &cannedSession{}
	for i, o := range ops {
		switch i % 3 {
		case 0: // another key's row
			o.id = (o.id + 1) % int64(rowsPerTable)
		case 1: // a stale v on a workload that has no writer
			wrong.replies = append(wrong.replies, cjdbc.NewRows(&backend.Result{Rows: [][]sqlval.Value{
				{sqlval.Int(o.id), sqlval.Int(initialV(o.id) + 1), sqlval.String_(loadedPad[o.table][o.id])}}}))
			continue
		case 2: // no row
			wrong.replies = append(wrong.replies, cjdbc.NewRows(&backend.Result{}))
			continue
		}
		wrong.replies = append(wrong.replies, replyFor(o))
	}
	c := newOpClient(newTimedSession(wrong, nil), ops, true)
	c.run()
	if c.checkFailed != 50 {
		t.Errorf("%d of 50 wrong replies were caught; first: %s", c.checkFailed, c.firstBad)
	}
}
