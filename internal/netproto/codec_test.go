package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/sqlval"
)

// sameValue is value equality as a client sees it: same kind and payload,
// NaN equal to NaN, a time the same instant at the same zone offset.
func sameValue(a, b sqlval.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case sqlval.KindFloat:
		return math.Float64bits(a.Float64()) == math.Float64bits(b.Float64())
	case sqlval.KindTime:
		_, ao := a.Time().Zone()
		_, bo := b.Time().Zone()
		return a.Time().Equal(b.Time()) && ao == bo && a.Time().IsZero() == b.Time().IsZero()
	case sqlval.KindBytes:
		return bytes.Equal(a.Bytes(), b.Bytes())
	}
	return a.I == b.I && a.S == b.S
}

func sameValues(a, b []sqlval.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// edgeValues holds every kind at its extremes.
var edgeValues = []sqlval.Value{
	sqlval.Null,
	sqlval.Int(0), sqlval.Int(-1), sqlval.Int(math.MinInt64), sqlval.Int(math.MaxInt64),
	sqlval.Float(0), sqlval.Float(math.Copysign(0, -1)), sqlval.Float(math.NaN()),
	sqlval.Float(math.Inf(1)), sqlval.Float(math.Inf(-1)), sqlval.Float(math.SmallestNonzeroFloat64),
	sqlval.String_(""), sqlval.String_("x'y\x00\xff"), sqlval.String_(strings.Repeat("kilobytes ", 700)),
	sqlval.Bool(false), sqlval.Bool(true),
	sqlval.Time(time.Time{}), sqlval.Time(time.Unix(0, 0).UTC()),
	sqlval.Time(time.Date(2004, 6, 27, 10, 0, 0, 999999999, time.UTC)),
	sqlval.Time(time.Date(2004, 6, 27, 10, 0, 0, 1, time.FixedZone("PDT", -7*3600))),
	sqlval.Time(time.Date(1, 1, 1, 0, 0, 0, 0, time.FixedZone("", 14*3600+1))),
	sqlval.Bytes(nil), sqlval.Bytes([]byte{}), sqlval.Bytes([]byte{0, 255, 128}),
}

func randomValue(r *rand.Rand) sqlval.Value {
	if r.Intn(3) == 0 {
		return edgeValues[r.Intn(len(edgeValues))]
	}
	raw := make([]byte, r.Intn(40))
	r.Read(raw)
	switch sqlval.Kind(r.Intn(7)) {
	case sqlval.KindInt:
		return sqlval.Int(int64(r.Uint64()) >> uint(r.Intn(64)))
	case sqlval.KindFloat:
		return sqlval.Float(math.Float64frombits(r.Uint64()))
	case sqlval.KindString:
		return sqlval.String_(string(raw))
	case sqlval.KindBool:
		return sqlval.Bool(r.Intn(2) == 0)
	case sqlval.KindTime:
		zone := time.FixedZone("", r.Intn(2*86399)-86399)
		return sqlval.Time(time.Unix(r.Int63n(1<<36)-1<<35, r.Int63n(1e9)).In(zone))
	case sqlval.KindBytes:
		return sqlval.Bytes(raw)
	}
	return sqlval.Null
}

func randomResult(r *rand.Rand) *backend.Result {
	extremes := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, r.Int63()}
	res := &backend.Result{
		RowsAffected: extremes[r.Intn(len(extremes))],
		LastInsertID: extremes[r.Intn(len(extremes))],
	}
	ncols := r.Intn(5)
	for c := 0; c < ncols; c++ {
		res.Columns = append(res.Columns, fmt.Sprintf("c%d", c))
	}
	if ncols > 0 {
		for n := r.Intn(8); n > 0; n-- {
			row := make([]sqlval.Value, ncols)
			for c := range row {
				row[c] = randomValue(r)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// hello is the magic word a stream opens with.
var hello = binary.BigEndian.AppendUint32(nil, magic)

// encoded runs put on a fresh wire over a buffer and returns the stream as
// sent: the magic word and the frame.
func encoded(t testing.TB, put func(w *wire) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newWire(&buf)
	if err := put(w); err != nil {
		t.Fatal(err)
	}
	if err := w.send(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readBack reads the single frame of a fresh stream through the product's reader.
func readBack(t testing.TB, stream []byte, want byte) string {
	t.Helper()
	typ, body, err := newWire(bytes.NewBuffer(stream)).read()
	if err != nil || typ != want {
		t.Fatalf("read back: type %d, %v", typ, err)
	}
	return string(body)
}

// Every request and result the generator can build comes back equal; the
// encodings it produced seed FuzzDecodeFrame.
func TestCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	// Every edge value at least once, as parameters and as a one-column result.
	edgeRows := make([][]sqlval.Value, len(edgeValues))
	for i := range edgeValues {
		edgeRows[i] = edgeValues[i : i+1]
	}
	edge := &backend.Result{Columns: []string{""}, Rows: edgeRows}
	for i := 0; i < 2000; i++ {
		sql, params, res := fmt.Sprintf("SELECT %d", i), []sqlval.Value(nil), randomResult(r)
		for n := r.Intn(6); n > 0; n-- {
			params = append(params, randomValue(r))
		}
		if i == 0 {
			sql, params, res = "", edgeValues, edge
		}

		body := readBack(t, encoded(t, func(w *wire) error { return w.putExec(sql, params) }), frameExec)
		gotSQL, gotParams, err := decodeExec(body, nil)
		if err != nil || gotSQL != sql || !sameValues(gotParams, params) {
			t.Fatalf("request %d: %q %v, %v; sent %q %v", i, gotSQL, gotParams, err, sql, params)
		}

		body = readBack(t, encoded(t, func(w *wire) error { return w.putResult(res) }), frameResult)
		got, err := decodeResult(body)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if got.RowsAffected != res.RowsAffected || got.LastInsertID != res.LastInsertID ||
			fmt.Sprint(got.Columns) != fmt.Sprint(res.Columns) || len(got.Rows) != len(res.Rows) {
			t.Fatalf("result %d: %+v, sent %+v", i, got, res)
		}
		for j := range res.Rows {
			if !sameValues(got.Rows[j], res.Rows[j]) {
				t.Fatalf("result %d row %d: %v, sent %v", i, j, got.Rows[j], res.Rows[j])
			}
		}
	}
}

func TestErrorFrameCarriesTheClass(t *testing.T) {
	semantic := []error{
		fmt.Errorf("wrapped: %w", sqlval.ErrValue),
		backend.ErrStatement,
	}
	for _, in := range append(semantic, errors.New("balancer: no enabled backend"), io.ErrUnexpectedEOF) {
		body := readBack(t, encoded(t, func(w *wire) error { w.putError(in); return nil }), frameError)
		out, err := decodeError(body)
		if err != nil || out.Error() != in.Error() {
			t.Fatalf("%v came back as %v, %v", in, out, err)
		}
		if want := errors.Is(in, sqlval.ErrValue) || errors.Is(in, backend.ErrStatement); errors.Is(out, backend.ErrStatement) != want {
			t.Fatalf("%v: statement class %v, want %v", in, !want, want)
		}
	}
}

// frame builds a frame by hand, for bodies the encoder would never produce.
func frame(typ byte, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(body)+1))
	return append(append(b, typ), body...)
}

func uv(x uint64) []byte { return binary.AppendUvarint(nil, x) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// Declared counts far beyond the body are refused before anything is sized
// by them, each with the typed error.
func TestOversizedCountsAreRefusedBeforeAllocation(t *testing.T) {
	huge := uv(1 << 32)
	bodies := map[string]func() error{
		"params": func() error { _, _, err := decodeExec(string(cat(uv(0), huge)), nil); return err },
		"string length": func() error {
			_, _, err := decodeExec(string(cat(huge, []byte("SELECT 1"))), nil)
			return err
		},
		"columns": func() error { _, err := decodeResult(string(cat(uv(0), uv(0), huge))); return err },
		"rows": func() error {
			_, err := decodeResult(string(cat(uv(0), uv(0), uv(1), uv(1), []byte("c"), huge)))
			return err
		},
		"rows of a zero-column result": func() error {
			_, err := decodeResult(string(cat(uv(0), uv(0), uv(0), uv(3), []byte("pad"))))
			return err
		},
		"bytes value": func() error {
			_, _, err := decodeExec(string(cat(uv(0), uv(1), []byte{byte(sqlval.KindBytes)}, huge)), nil)
			return err
		},
		"unknown kind": func() error { _, _, err := decodeExec(string(cat(uv(0), uv(1), []byte{7})), nil); return err },
		"bad boolean": func() error {
			_, _, err := decodeExec(string(cat(uv(0), uv(1), []byte{byte(sqlval.KindBool), 2})), nil)
			return err
		},
		"varint too long": func() error { _, _, err := decodeExec(string(bytes.Repeat([]byte{0xff}, 11)), nil); return err },
		"trailing bytes":  func() error { _, _, err := decodeExec(string(cat(uv(0), uv(0), []byte{0})), nil); return err },
		"error class":     func() error { _, err := decodeError(string(cat([]byte{9}, uv(0)))); return err },
		"empty body":      func() error { _, err := decodeResult(""); return err },
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, decode := range bodies {
		if err := decode(); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: %v, want ErrProtocol", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing %d hostile bodies allocated %d bytes", len(bodies), grew)
	}
}

// hostile opens a raw TCP connection and writes what it is given; unless it
// is to close the connection itself, it then requires the server to.
func hostile(t *testing.T, addr string, send []byte, closeAfter bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(send); err != nil {
		return // the server hung up while we were still talking: also fine
	}
	if closeAfter {
		return
	}
	// The server must hang up on its own rather than wait for more.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil && !errors.Is(err, io.EOF) {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("server kept a connection that sent %d hostile bytes", len(send))
		}
	}
}

func connectStream(t testing.TB) []byte {
	return encoded(t, func(w *wire) error { w.putConnect("app", "alice", "pw"); return nil })
}

// Each kind of hostile peer ends its own connection only: a fresh Dial is
// served afterwards, and Server.Close (the test's cleanup, which waits for
// every handler) returns, so no goroutine is left behind.
func TestHostileInputEndsOnlyItsConnection(t *testing.T) {
	srv, addr := newServer(t)
	ok := connectStream(t)
	exec := encoded(t, func(w *wire) error {
		return w.putExec("SELECT COUNT(*) FROM t", []sqlval.Value{sqlval.String_(strings.Repeat("x", 300))})
	})[len(hello):]
	random := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(random)
	gobEra := []byte{0x3d, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 'R', 'e', 'q', 'u', 'e', 's', 't'}

	cases := []struct {
		name       string
		send       []byte
		closeAfter bool
	}{
		{"wrong magic", cat([]byte("CJW\x02"), ok[4:]), false},
		{"gob-era client", gobEra, false},
		{"1 MiB of random bytes", random, false},
		{"1 MiB of random bytes after a good handshake", cat(ok, random), false},
		{"frame length over the limit", cat(ok, []byte{0xff, 0xff, 0xff, 0xff, frameExec}), false},
		{"frame length zero", cat(ok, []byte{0, 0, 0, 0, frameExec}), false},
		{"unknown frame type", cat(ok, frame(9, nil)), false},
		{"result frame sent to the server", cat(ok, frame(frameResult, cat(uv(0), uv(0), uv(0), uv(0)))), false},
		{"exec before connect", cat(hello, exec), false},
		{"oversized parameter count", cat(ok, frame(frameExec, cat(uv(0), uv(1<<32)))), false},
		{"oversized string length", cat(ok, frame(frameExec, cat(uv(1<<40), []byte("SELECT")))), false},
		{"frame truncated mid-body, then silence broken by close", cat(ok, exec[:len(exec)-100]), true},
		{"disconnect mid-header", cat(ok, exec[:3]), true},
		{"disconnect mid-handshake", ok[:9], true},
	}
	for _, tc := range cases {
		hostile(t, addr, tc.send, tc.closeAfter)
		c, err := Dial(addr, "app", "alice", "pw")
		if err != nil {
			t.Fatalf("after %s: dial: %v", tc.name, err)
		}
		if _, err := c.Exec("SELECT COUNT(*) FROM t", nil); err != nil {
			t.Fatalf("after %s: exec: %v", tc.name, err)
		}
		c.Close()
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return: a handler is stuck")
	}
}

// A peer that connects and then says nothing, or stops mid-handshake, is
// dropped when the handshake deadline passes.
func TestSilentHandshakeIsDropped(t *testing.T) {
	// Registered before the server's own cleanup, so it runs after
	// Server.Close has waited for every handler that read the variable.
	old := handshakeTimeout
	t.Cleanup(func() { handshakeTimeout = old })
	handshakeTimeout = 50 * time.Millisecond
	_, addr := newServer(t)
	for _, send := range [][]byte{nil, connectStream(t)[:9]} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(send)
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("silent peer: read %d, %v; want the server to hang up", n, err)
		}
		conn.Close()
	}
	// The client's side of the same bound: a server that accepts and never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := Dial(ln.Addr().String(), "app", "alice", "pw"); err == nil {
		t.Fatal("Dial returned a client for a server that never answered")
	}
}

// A client of another protocol or version gets a typed error, whether the
// stranger is the server or the reply.
func TestClientRefusesForeignServer(t *testing.T) {
	for name, reply := range map[string][]byte{
		"wrong version":   cat([]byte("CJW\x02"), frame(frameConnect, nil)),
		"unknown answer":  cat(hello, frame(9, nil)),
		"answer too long": cat(hello, []byte{0x7f, 0, 0, 0, frameConnect}),
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func(reply []byte) {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			conn.Write(reply)
			io.Copy(io.Discard, conn)
		}(reply)
		if _, err := Dial(ln.Addr().String(), "app", "alice", "pw"); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: %v, want ErrProtocol", name, err)
		}
		ln.Close()
	}
}

// A result that does not fit a frame is answered with an error frame: the
// statement fails, the stream stays whole, and neither end keeps the big
// buffer.
func TestOversizedResultIsAnErrorNotATornStream(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 2 x 64 MiB")
	}
	_, addr := newServer(t)
	c, err := Dial(addr, "app", "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mib := sqlval.String_(strings.Repeat("m", 1<<20))
	for id := 0; id < maxFrame>>20+1; id++ {
		if _, err := c.Exec("INSERT INTO t (id, v) VALUES (?, ?)", []sqlval.Value{sqlval.Int(int64(id)), mib}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c.Exec("SELECT v FROM t", nil)
	if err == nil || IsConnLost(err) || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversized result: %v", err)
	}
	res, err := c.Exec("SELECT COUNT(*) FROM t", nil)
	if err != nil || res.Rows[0][0].I != maxFrame>>20+1 {
		t.Fatalf("after the oversized result: %v, %v", res, err)
	}
	// The same limit on the way in: refused before anything is sent.
	_, err = c.Exec("SELECT ?", []sqlval.Value{sqlval.String_(strings.Repeat("r", maxFrame))})
	if err == nil || IsConnLost(err) {
		t.Fatalf("oversized request: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("after the oversized request: %v", err)
	}
	if cap(c.w.out) > keepBuf || cap(c.w.in) > keepBuf {
		t.Fatalf("client keeps %d + %d bytes of buffer", cap(c.w.out), cap(c.w.in))
	}
}

// The wire may add only a constant handful of allocations to a statement,
// whatever the size of its result. AllocsPerRun counts the whole process,
// so the server's share is in the figure.
func TestWireAllocationBudget(t *testing.T) {
	srv, addr := newServer(t)
	c, err := Dial(addr, "app", "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, pad VARCHAR)", nil); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 200; id++ {
		if _, err := c.Exec("INSERT INTO kv (id, v, pad) VALUES (?, ?, ?)",
			[]sqlval.Value{sqlval.Int(id), sqlval.Int(id), sqlval.String_("padding-padding-padding")}); err != nil {
			t.Fatal(err)
		}
	}
	vdb, err := srv.ctrl.VirtualDatabase("app")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := vdb.NewSession("alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	for _, tc := range []struct {
		sql    string
		params []sqlval.Value
		rows   int
		budget float64
	}{
		{"SELECT id, v, pad FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(7)}, 1, 6},
		{"SELECT id, v, pad FROM kv WHERE id >= ? AND id < ?", []sqlval.Value{sqlval.Int(50), sqlval.Int(100)}, 50, 6},
	} {
		run := func(exec func(string, []sqlval.Value) (*backend.Result, error)) float64 {
			return testing.AllocsPerRun(200, func() {
				if res, err := exec(tc.sql, tc.params); err != nil || len(res.Rows) != tc.rows {
					t.Fatalf("%s: %v, %v", tc.sql, res, err)
				}
			})
		}
		inProcess, wire := run(sess.Exec), run(c.Exec)
		t.Logf("%d-row read: %.0f allocations in process, %.0f over the wire", tc.rows, inProcess, wire)
		if wire-inProcess > tc.budget {
			t.Errorf("%d-row read: the wire adds %.0f allocations, budget %.0f", tc.rows, wire-inProcess, tc.budget)
		}
	}
}

// benchResult is the result shape of the benchmark's wire workload.
func benchResult(rows int) *backend.Result {
	res := &backend.Result{Columns: []string{"id", "v", "pad"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, []sqlval.Value{
			sqlval.Int(int64(i)), sqlval.Int(int64(i) * 7), sqlval.String_("padding-padding-padding")})
	}
	return res
}

// BenchmarkCodecRoundTrip is one request and its response, each encoded,
// written to a buffer, read back and decoded: the codec's whole cost with
// no socket and no controller.
func BenchmarkCodecRoundTrip(b *testing.B) {
	for _, rows := range []int{1, 50} {
		b.Run(fmt.Sprintf("%drow", rows), func(b *testing.B) {
			res := benchResult(rows)
			params := []sqlval.Value{sqlval.Int(50), sqlval.Int(100)}
			var buf bytes.Buffer
			w := newWire(&buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.putExec("SELECT id, v, pad FROM kv0 WHERE id >= ? AND id < ?", params); err != nil {
					b.Fatal(err)
				}
				w.send()
				_, body, _ := w.read()
				if _, _, err := decodeExec(string(body), nil); err != nil {
					b.Fatal(err)
				}
				if err := w.putResult(res); err != nil {
					b.Fatal(err)
				}
				w.send()
				_, body, _ = w.read()
				if got, err := decodeResult(string(body)); err != nil || len(got.Rows) != rows {
					b.Fatal(err)
				}
			}
		})
	}
}

// decodeAny reads the first frame of a stream and decodes it by its type, as the
// two ends do between them. It reports how many values and rows came out.
func decodeAny(stream []byte) (elements int, err error) {
	typ, body, err := newWire(bytes.NewBuffer(stream)).read()
	if err != nil {
		return 0, err
	}
	switch typ {
	case frameConnect:
		_, _, _, err = decodeConnect(string(body))
	case frameExec:
		var params []sqlval.Value
		_, params, err = decodeExec(string(body), nil)
		elements = len(params)
	case frameResult:
		var res *backend.Result
		if res, err = decodeResult(string(body)); err == nil {
			elements = len(res.Columns) + len(res.Rows)*(1+len(res.Columns))
		}
	case frameError:
		_, err = decodeError(string(body))
	case framePing:
	default:
		err = protoErr("unknown frame type %d", typ)
	}
	return elements, err
}

// FuzzDecodeFrame: no input makes the reader or a decoder panic, fail with
// anything but a protocol or short-read error, or build more than its bytes
// can pay for (every element costs at least one byte of input).
func FuzzDecodeFrame(f *testing.F) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		res, params := randomResult(r), []sqlval.Value{randomValue(r), randomValue(r)}
		f.Add(encoded(f, func(w *wire) error { return w.putResult(res) }))
		f.Add(encoded(f, func(w *wire) error { return w.putExec("SELECT ?, ?", params) }))
	}
	f.Add(encoded(f, func(w *wire) error { w.putConnect("app", "alice", "pw"); return nil }))
	f.Add(encoded(f, func(w *wire) error { w.putError(backend.ErrStatement); return nil }))
	f.Add(cat(hello, frame(frameResult, cat(uv(0), uv(0), uv(1), uv(1), []byte("c"), uv(1<<32)))))
	f.Add(cat(hello, []byte{0x03, 0xff, 0xff, 0xff, frameExec, 0}))
	f.Fuzz(func(t *testing.T, stream []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		elements, err := decodeAny(stream)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrProtocol) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("untyped error: %v", err)
		}
		if elements > len(stream) {
			t.Fatalf("%d elements from %d bytes", elements, len(stream))
		}
		// A value is 88 bytes in memory and can be one on the wire; the
		// constant covers the bufio.Reader and the first read chunk.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(stream))+256<<10 {
			t.Fatalf("%d bytes allocated for %d bytes of input", grew, len(stream))
		}
	})
}
