package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/balancer"
	"cjdbc/internal/recovery"
	"cjdbc/internal/sqlparser"
)

// Span kinds. The request span is recorded by the load generator; the others
// by the wrappers below, at the seams the product already has.
const (
	spanRequest uint8 = iota
	spanAppend
	spanSince
	spanChoose
	spanExec
	spanBegin
	spanCommit
	spanRollback
	spanClose
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"driver.request", "recovery.append", "recovery.since", "balancer.choose",
	"sqlengine.exec", "sqlengine.begin", "sqlengine.commit", "sqlengine.rollback", "sqlengine.close",
}

func engineSpan(kind uint8) bool { return kind >= spanExec }

// noBackend marks spans that do not belong to one backend.
const noBackend = 255

type span struct {
	kind, backend uint8
	req           uint32
	start, end    int64 // ns since the tracer's base
}

// tracer keeps spans in one preallocated buffer filled through an atomic
// cursor: recording takes two clock reads and one store, no lock, no
// allocation, from any goroutine. The traced run has one client, so the
// request in flight is a single number the wrappers can read.
type tracer struct {
	base    time.Time
	spans   []span
	on      atomic.Bool
	cursor  atomic.Int64
	req     atomic.Uint32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a span that started at start, ends now and belongs to the
// request in flight.
func (t *tracer) add(kind, backend uint8, start int64) {
	t.addSpan(span{kind: kind, backend: backend, req: t.req.Load(), start: start, end: t.now()})
}

func (t *tracer) addSpan(s span) {
	if !t.on.Load() {
		return
	}
	i := t.cursor.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = s
}

// start and stop bracket the measured phase: the data load before it and the
// oracles' queries after it pass through the same wrappers and are not part
// of any request.
func (t *tracer) start() { t.on.Store(true) }
func (t *tracer) stop()  { t.on.Store(false) }

func (t *tracer) recorded() []span {
	n := t.cursor.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// tracedLog times Append and Since; everything else is the wrapped log's.
type tracedLog struct {
	recovery.Log
	tr *tracer
}

func (l *tracedLog) Append(e recovery.Entry) (uint64, error) {
	defer l.tr.add(spanAppend, noBackend, l.tr.now())
	return l.Log.Append(e)
}

func (l *tracedLog) Since(seq uint64) ([]recovery.Entry, error) {
	defer l.tr.add(spanSince, noBackend, l.tr.now())
	return l.Log.Since(seq)
}

type tracedBalancer struct {
	inner balancer.Balancer
	tr    *tracer
}

func (b *tracedBalancer) Name() string { return b.inner.Name() }

func (b *tracedBalancer) Choose(cands []*backend.Backend) (*backend.Backend, error) {
	defer b.tr.add(spanChoose, noBackend, b.tr.now())
	return b.inner.Choose(cands)
}

// tracedDriver hands out tracing connections. Embedding the engine driver
// forwards backend.SchemaProvider, which backups and schema gathering need.
type tracedDriver struct {
	*backend.EngineDriver
	tr      *tracer
	backend uint8
}

// engineConn is everything the backend type-asserts on a connection. The
// engine's connection implements all of it, and the wrapper must too: a
// backend that finds TicketReserver or ConnResetter missing falls back to
// execution-time locking on pooled connections, which is a different program.
type engineConn interface {
	backend.Conn
	backend.LockReserver
	backend.TicketReserver
	backend.ConnResetter
	backend.ConnKiller
}

var (
	_ backend.Driver         = (*tracedDriver)(nil)
	_ backend.SchemaProvider = (*tracedDriver)(nil)
	_ engineConn             = (*tracedConn)(nil)
)

func (d *tracedDriver) Open() (backend.Conn, error) {
	c, err := d.EngineDriver.Open()
	if err != nil {
		return nil, err
	}
	return &tracedConn{engineConn: c.(engineConn), tr: d.tr, backend: d.backend}, nil
}

// tracedConn times the calls that do engine work. Close is one of them: closing
// an engine session sweeps superseded row versions. Reservation, reset and
// kill pass through the embedded connection untimed.
type tracedConn struct {
	engineConn
	tr      *tracer
	backend uint8
}

func (c *tracedConn) Exec(st sqlparser.Statement, sql string) (*backend.Result, error) {
	defer c.tr.add(spanExec, c.backend, c.tr.now())
	return c.engineConn.Exec(st, sql)
}

func (c *tracedConn) Begin() error {
	defer c.tr.add(spanBegin, c.backend, c.tr.now())
	return c.engineConn.Begin()
}

func (c *tracedConn) Commit() error {
	defer c.tr.add(spanCommit, c.backend, c.tr.now())
	return c.engineConn.Commit()
}

func (c *tracedConn) Rollback() error {
	defer c.tr.add(spanRollback, c.backend, c.tr.now())
	return c.engineConn.Rollback()
}

func (c *tracedConn) Close() error {
	defer c.tr.add(spanClose, c.backend, c.tr.now())
	return c.engineConn.Close()
}

// layerTimes is what one traced run says about where request time went. All
// sums are nanoseconds over the whole run.
type layerTimes struct {
	requests   int64
	requestNs  int64 // sum of request spans
	engineNs   int64 // union of engine spans inside their request, so write-all's two parallel spans count once
	appendNs   int64
	chooseNs   int64
	queueNs    int64 // append end to the first engine span, once per write request
	selfNs     int64 // what is left of the request: the controller (and, over the wire, netproto)
	outsideNs  int64 // layer-span time outside the request it is tagged with
	count      [nSpanKinds]int64
	sum        [nSpanKinds]int64
	queueCount int64 // per-backend queue samples
	queueSum   int64
}

type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs; it sorts ivs.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, hi int64
	hi = -1 << 62
	for _, iv := range ivs {
		if iv.lo > hi {
			total += iv.hi - iv.lo
			hi = iv.hi
		} else if iv.hi > hi {
			total += iv.hi - hi
			hi = iv.hi
		}
	}
	return total
}

// analyze groups spans by request and splits each request's time into layer
// self times: a layer's spans minus nothing (they are leaves here), the
// backend's hand-off gap, and the remainder, which belongs to the controller.
// Spans tagged with a request but lying outside it (work finishing after the
// reply) are summed into outsideNs, the check on "time containment gives the
// parent".
func analyze(spans []span) layerTimes {
	var lt layerTimes
	byReq := make(map[uint32][]span)
	roots := make(map[uint32]span)
	for _, s := range spans {
		if s.req == reintegrateReq {
			// The timed RestoreBackend is not a client request; its spans
			// stay in the trace file and out of the per-request means.
			continue
		}
		lt.count[s.kind]++
		lt.sum[s.kind] += s.end - s.start
		if s.kind == spanRequest {
			roots[s.req] = s
		} else {
			byReq[s.req] = append(byReq[s.req], s)
		}
	}
	var ivs, eng []interval
	for req, root := range roots {
		lt.requests++
		dur := root.end - root.start
		lt.requestNs += dur
		ivs, eng = ivs[:0], eng[:0]
		appendEnd := int64(-1)
		firstExec := [nBackends]int64{-1, -1}
		for _, s := range byReq[req] {
			lo, hi := s.start, s.end
			if lo < root.start {
				lo = root.start
			}
			if hi > root.end {
				hi = root.end
			}
			if hi < lo {
				hi = lo
			}
			lt.outsideNs += (s.end - s.start) - (hi - lo)
			ivs = append(ivs, interval{lo, hi})
			switch {
			case engineSpan(s.kind):
				eng = append(eng, interval{lo, hi})
				if b := int(s.backend); b < nBackends && (firstExec[b] < 0 || lo < firstExec[b]) {
					firstExec[b] = lo
				}
			case s.kind == spanAppend:
				lt.appendNs += hi - lo
				appendEnd = hi
			case s.kind == spanChoose:
				lt.chooseNs += hi - lo
			}
		}
		lt.engineNs += unionLen(eng)
		var gap int64
		if appendEnd >= 0 {
			first := int64(-1)
			for _, f := range firstExec {
				if f >= appendEnd {
					lt.queueCount++
					lt.queueSum += f - appendEnd
					if first < 0 || f < first {
						first = f
					}
				}
			}
			if first >= 0 {
				gap = first - appendEnd
				ivs = append(ivs, interval{appendEnd, first})
			}
		}
		lt.queueNs += gap
		lt.selfNs += dur - unionLen(ivs)
	}
	// Spans whose request never completed a root (none in a clean run) are
	// entirely outside.
	for req, ss := range byReq {
		if _, ok := roots[req]; !ok {
			for _, s := range ss {
				lt.outsideNs += s.end - s.start
			}
		}
	}
	return lt
}

type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Dropped  int64      `json:"dropped_spans"`
	Names    []string   `json:"names"`
	Columns  []string   `json:"columns"`
	Spans    [][5]int64 `json:"spans"`
}

// writeTrace writes the spans to <dir>/trace-<workload>.json, one row per
// span: index into names, backend (255 = none), request id, start and end in
// nanoseconds since the run began.
func writeTrace(dir, workload string, seed int64, tr *tracer) error {
	spans := tr.recorded()
	f := traceFile{
		Workload: workload, Seed: seed, Dropped: tr.dropped.Load(),
		Names:   spanNames[:],
		Columns: []string{"name", "backend", "request", "start_ns", "end_ns"},
		Spans:   make([][5]int64, len(spans)),
	}
	for i, s := range spans {
		f.Spans[i] = [5]int64{int64(s.kind), int64(s.backend), int64(s.req), s.start, s.end}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
