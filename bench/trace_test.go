package main

import (
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlengine"
	"cjdbc/internal/sqlparser"
)

// countingDriver counts the connections a backend opens.
type countingDriver struct {
	backend.Driver
	backend.SchemaProvider
	opens int
}

func (d *countingDriver) Open() (backend.Conn, error) {
	d.opens++
	return d.Driver.Open()
}

// A backend over the tracing wrappers must take the same write path as one
// over the engine's own driver, or the traced run measures another program:
// the write's lock ticket is reserved at enqueue time, on a dedicated
// connection that is reset and reused, not opened per write.
func TestTracedBackendKeepsEnqueueTimeTicketsAndPreboundConnections(t *testing.T) {
	for _, traced := range []bool{false, true} {
		eng := sqlengine.New("db")
		inner := &backend.EngineDriver{Engine: eng}
		var d backend.Driver = inner
		if traced {
			tr := newTracer(1024)
			tr.start()
			d = &tracedDriver{EngineDriver: inner, tr: tr}
		}
		cd := &countingDriver{Driver: d, SchemaProvider: inner}
		b := backend.New(backend.Config{Name: "db", Driver: cd})
		b.Enable()

		setup := eng.NewSession()
		for _, sql := range []string{"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", "INSERT INTO t (id, v) VALUES (1, 0)"} {
			if _, err := setup.ExecSQL(sql); err != nil {
				t.Fatal(err)
			}
		}
		// A transaction outside the backend holds t's write lock, so the
		// backend's write cannot be granted yet.
		if err := setup.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := setup.ExecSQL("UPDATE t SET v = 100 WHERE id = 1"); err != nil {
			t.Fatal(err)
		}

		const sql = "UPDATE t SET v = v + 1 WHERE id = 1"
		st, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		done := b.EnqueueWrite(0, sqlparser.ClassWrite, st, sql)
		// The ticket is queued by EnqueueWrite itself, before it returns;
		// execution-time locking would queue it whenever a worker got there.
		if got := eng.PendingTickets(); got != 1 {
			t.Fatalf("traced=%v: %d lock tickets queued when EnqueueWrite returned, want 1", traced, got)
		}
		select {
		case out := <-done:
			t.Fatalf("traced=%v: write finished under a held lock: %+v", traced, out)
		case <-time.After(10 * time.Millisecond):
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		if out := <-done; out.Err != nil {
			t.Fatalf("traced=%v: %v", traced, out.Err)
		}
		for i := 0; i < 20; i++ {
			if out := <-b.EnqueueWrite(0, sqlparser.ClassWrite, st, sql); out.Err != nil {
				t.Fatalf("traced=%v: %v", traced, out.Err)
			}
		}
		// One dedicated connection, reset after each write and drawn again.
		// The fallback opens two: the probe it discards and a pooled one.
		if cd.opens != 1 {
			t.Errorf("traced=%v: backend opened %d connections for 21 sequential writes, want 1", traced, cd.opens)
		}
		res, err := setup.ExecSQL("SELECT v FROM t WHERE id = 1")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 121 {
			t.Errorf("traced=%v: v = %v (%v), want 121", traced, res, err)
		}
		setup.Close()
		b.Close()
		eng.Close()
	}
}

func TestAnalyzeCountsParallelEngineSpansOnceAndFindsOutsideTime(t *testing.T) {
	spans := []span{
		// Request 1, a write: append, then the same statement on both
		// backends in parallel, overlapping.
		{kind: spanRequest, backend: noBackend, req: 1, start: 0, end: 1000},
		{kind: spanAppend, backend: noBackend, req: 1, start: 100, end: 150},
		{kind: spanExec, backend: 0, req: 1, start: 200, end: 600},
		{kind: spanExec, backend: 1, req: 1, start: 300, end: 700},
		// Request 2, a read: choose, then one engine span that ends after
		// the reply.
		{kind: spanRequest, backend: noBackend, req: 2, start: 2000, end: 2500},
		{kind: spanChoose, backend: noBackend, req: 2, start: 2010, end: 2020},
		{kind: spanExec, backend: 1, req: 2, start: 2100, end: 2600},
		// The reintegration is no client request.
		{kind: spanRequest, backend: noBackend, req: reintegrateReq, start: 3000, end: 9000},
		{kind: spanExec, backend: 1, req: reintegrateReq, start: 3100, end: 8000},
	}
	lt := analyze(spans)
	want := layerTimes{
		requests:  2,
		requestNs: 1500,
		engineNs:  500 + 400, // union 200..700, and 2100..2500 clipped to the request
		appendNs:  50,
		chooseNs:  10,
		queueNs:   50,                // append end 150 to the first engine span at 200
		selfNs:    (1000 - 600) + 90, // request 1: 0..100 and 700..1000; request 2: 2000..2010 and 2020..2100
		outsideNs: 100,
		queueSum:  50 + 150, queueCount: 2,
	}
	want.count[spanRequest], want.sum[spanRequest] = 2, 1500
	want.count[spanAppend], want.sum[spanAppend] = 1, 50
	want.count[spanChoose], want.sum[spanChoose] = 1, 10
	want.count[spanExec], want.sum[spanExec] = 3, 400+400+500
	if lt != want {
		t.Fatalf("got  %+v\nwant %+v", lt, want)
	}
	// Layer self times add up to the requests.
	if sum := lt.engineNs + lt.appendNs + lt.chooseNs + lt.queueNs + lt.selfNs; sum != lt.requestNs {
		t.Fatalf("layers sum to %d, requests to %d", sum, lt.requestNs)
	}
}
