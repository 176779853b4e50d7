package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"cjdbc/internal/backend"
	"cjdbc/internal/controller"
	"cjdbc/internal/senterr"
	"cjdbc/internal/sqlval"
)

// The stream in each direction opens with the magic word and is then a
// sequence of frames, [u32 length][u8 type][body], length counting the type
// byte and the body. docs/ARCHITECTURE.md ("Wire protocol") has the layout
// of every body.
const (
	magic      uint32 = 'C'<<24 | 'J'<<16 | 'W'<<8 | 1 // "CJW", protocol version 1
	maxFrame          = 64 << 20                       // largest length word sent or accepted
	keepBuf           = 64 << 10                       // largest buffer a connection keeps between frames
	keptParams        = 64                             // longest parameter vector a server connection keeps between statements
)

// Frame types. Connect and ping are answered by an empty frame of the same
// type, exec by a result; any request can be answered by an error instead.
const (
	frameConnect byte = iota + 1
	frameExec
	framePing
	frameResult
	frameError
)

// Error classes carried by an error frame.
const (
	classOther     byte = iota
	classStatement      // controller.IsSemanticError held on the serving side
)

// ErrProtocol is the errors.Is sentinel for a peer that does not speak this
// protocol: wrong magic or version, an oversized or truncated frame, a
// count its body cannot hold, an unknown type, kind or class byte. The
// connection it arrived on is finished; nothing else is affected.
var ErrProtocol = errors.New("netproto: protocol error")

func protoErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// wire is one end of a connection. Reads go through one bufio.Reader into
// a frame buffer that is reused; a frame to send is built in out and leaves
// in one Write. The magic word travels with the first frame sent and is
// expected before the first frame read.
type wire struct {
	w       io.Writer
	br      *bufio.Reader
	in      []byte
	out     []byte
	start   int  // offset in out of the open (or next) frame's length word
	greeted bool // the peer's magic word has been read
}

func newWire(rw io.ReadWriter) *wire {
	return &wire{w: rw, br: bufio.NewReader(rw), out: binary.BigEndian.AppendUint32(nil, magic), start: 4}
}

// begin opens a frame in out; the put functions append its body.
func (w *wire) begin(typ byte) {
	w.start = len(w.out)
	w.out = append(w.out, 0, 0, 0, 0, typ)
}

// checkSize refuses an open frame that has outgrown maxFrame.
func (w *wire) checkSize(what string) error {
	if len(w.out)-w.start-4 > maxFrame {
		return fmt.Errorf("netproto: %s exceeds the %d MiB frame limit", what, maxFrame>>20)
	}
	return nil
}

// send closes the open frame and writes everything in out at once.
func (w *wire) send() error {
	binary.BigEndian.PutUint32(w.out[w.start:], uint32(len(w.out)-w.start-4))
	_, err := w.w.Write(w.out)
	if cap(w.out) > keepBuf {
		w.out = nil
	}
	w.out, w.start = w.out[:0], 0
	return err
}

// read returns the next frame's type and body; the body is valid until the
// next read. The declared length is checked before any of the body is
// read, and the buffer grows only as fast as bytes arrive, so a header
// alone cannot make this end allocate a frame.
func (w *wire) read() (typ byte, body []byte, err error) {
	if cap(w.in) > keepBuf {
		w.in = nil
	}
	if !w.greeted {
		b, err := w.br.Peek(4)
		if err != nil {
			return 0, nil, err
		}
		if got := binary.BigEndian.Uint32(b); got != magic {
			return 0, nil, protoErr("magic/version word %#08x, want %#08x", got, magic)
		}
		w.br.Discard(4) // cannot fail after the Peek
		w.greeted = true
	}
	hdr, err := w.br.Peek(5)
	if err != nil {
		return 0, nil, err
	}
	n, typ := binary.BigEndian.Uint32(hdr), hdr[4]
	if n == 0 || n > maxFrame {
		return 0, nil, protoErr("frame length %d outside 1..%d", n, maxFrame)
	}
	w.br.Discard(5) // cannot fail after the Peek
	need, b := int(n)-1, w.in[:0]
	for len(b) < need {
		have := len(b)
		want := min(need, max(2*have, keepBuf))
		b = slices.Grow(b, want-have)[:want]
		if _, err := io.ReadFull(w.br, b[have:]); err != nil {
			return 0, nil, err
		}
	}
	w.in = b
	return typ, b, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendValue appends a kind byte and the kind's payload.
func appendValue(b []byte, v *sqlval.Value) ([]byte, error) {
	b = append(b, byte(v.K))
	switch v.K {
	case sqlval.KindNull:
	case sqlval.KindInt:
		b = binary.AppendVarint(b, v.I)
	case sqlval.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float64()))
	case sqlval.KindString, sqlval.KindBytes:
		b = appendString(b, v.S)
	case sqlval.KindBool:
		if v.I != 0 {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case sqlval.KindTime:
		t := v.Time()
		_, offset := t.Zone()
		b = binary.AppendVarint(b, t.Unix())
		b = binary.AppendUvarint(b, uint64(t.Nanosecond()))
		b = binary.AppendVarint(b, int64(offset))
	default:
		return b, fmt.Errorf("netproto: cannot encode a value of kind %d", v.K)
	}
	return b, nil
}

func (w *wire) putConnect(vdb, user, password string) {
	w.begin(frameConnect)
	w.out = appendString(appendString(appendString(w.out, vdb), user), password)
}

func (w *wire) putExec(sql string, params []sqlval.Value) (err error) {
	w.begin(frameExec)
	w.out = binary.AppendUvarint(appendString(w.out, sql), uint64(len(params)))
	for i := range params {
		if w.out, err = appendValue(w.out, &params[i]); err != nil {
			return err
		}
	}
	return w.checkSize("request")
}

// putResult encodes straight from the controller's result. It stops at the
// first row that takes the frame past maxFrame, so an oversized result
// costs at most one frame of buffer before it is refused.
func (w *wire) putResult(res *backend.Result) (err error) {
	w.begin(frameResult)
	w.out = binary.AppendVarint(binary.AppendVarint(w.out, res.RowsAffected), res.LastInsertID)
	w.out = binary.AppendUvarint(w.out, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		w.out = appendString(w.out, c)
	}
	w.out = binary.AppendUvarint(w.out, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		if len(row) != len(res.Columns) {
			return fmt.Errorf("netproto: result row has %d values for %d columns", len(row), len(res.Columns))
		}
		for i := range row {
			if w.out, err = appendValue(w.out, &row[i]); err != nil {
				return err
			}
		}
		if err := w.checkSize("result"); err != nil {
			return err
		}
	}
	return nil
}

// putError replaces whatever frame is open with an error frame for err.
func (w *wire) putError(err error) {
	w.out = w.out[:w.start]
	w.begin(frameError)
	class := classOther
	if controller.IsSemanticError(err) {
		class = classStatement
	}
	w.out = appendString(append(w.out, class), err.Error())
}

// decoder reads a frame body held as one string, so every string it returns
// is a substring of the body and costs no allocation. The first failure
// sticks and empties the body; reads after it return zero values.
type decoder struct {
	s   string
	i   int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = protoErr(format, args...)
	}
	d.i = len(d.s)
}

func (d *decoder) byte() byte {
	if d.i >= len(d.s) {
		d.fail("body ends inside a field")
		return 0
	}
	c := d.s[d.i]
	d.i++
	return c
}

func (d *decoder) uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		c := d.byte()
		if c < 0x80 {
			if shift == 63 && c > 1 {
				break
			}
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	d.fail("varint overflows 64 bits")
	return 0
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (d *decoder) uint64() uint64 {
	var x uint64
	for n := 0; n < 8; n++ {
		x = x<<8 | uint64(d.byte())
	}
	return x
}

// count reads an element count and refuses one whose elements, at unit
// bytes each or more, would not fit in the rest of the body. Every make in
// this file is sized by a count that passed here.
func (d *decoder) count(unit int) int {
	n := d.uvarint()
	if n > uint64((len(d.s)-d.i)/unit) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.s)-d.i)
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	s := d.s[d.i : d.i+n]
	d.i += n
	return s
}

// value decodes into *v, which must be the zero Value. A string or BLOB
// payload is a substring of the body, as a column name is.
func (d *decoder) value(v *sqlval.Value) {
	k := sqlval.Kind(d.byte())
	switch k {
	case sqlval.KindNull:
	case sqlval.KindInt:
		v.I = d.varint()
	case sqlval.KindFloat:
		*v = sqlval.Float(math.Float64frombits(d.uint64()))
	case sqlval.KindString, sqlval.KindBytes:
		v.S = d.string()
	case sqlval.KindBool:
		if v.I = int64(d.byte()); v.I > 1 {
			d.fail("boolean byte %d", v.I)
		}
	case sqlval.KindTime:
		sec, nsec, offset := d.varint(), d.uvarint(), d.varint()
		if nsec >= 1e9 || offset <= -86400 || offset >= 86400 {
			d.fail("time with nanosecond %d, zone offset %d", nsec, offset)
			return
		}
		t := time.Unix(sec, int64(nsec)).UTC()
		if offset != 0 {
			t = t.In(time.FixedZone("", int(offset)))
		}
		*v = sqlval.Time(t)
	default:
		d.fail("unknown value kind %d", k)
		return
	}
	v.K = k
}

// finish reports the first failure, or bytes left over after the last field.
func (d *decoder) finish() error {
	if d.err == nil && d.i != len(d.s) {
		d.fail("%d bytes after the last field", len(d.s)-d.i)
	}
	return d.err
}

func decodeConnect(body string) (vdb, user, password string, err error) {
	d := decoder{s: body}
	vdb, user, password = d.string(), d.string(), d.string()
	return vdb, user, password, d.finish()
}

// decodeExec decodes an exec frame. The parameters are decoded into vec's
// storage, grown when it is too short; no parameters decode to nil.
func decodeExec(body string, vec []sqlval.Value) (sql string, params []sqlval.Value, err error) {
	d := decoder{s: body}
	sql = d.string()
	if n := d.count(1); n > 0 {
		params = slices.Grow(vec[:0], n)[:n]
		for i := range params {
			d.value(&params[i])
		}
	}
	return sql, params, d.finish()
}

// decodeResult builds the result in four allocations whatever its size: the
// Result, the column names, one slab of rows x columns values and one slab
// of row headers. Strings point into body.
func decodeResult(body string) (*backend.Result, error) {
	d := decoder{s: body}
	res := &backend.Result{RowsAffected: d.varint(), LastInsertID: d.varint()}
	ncols := d.count(1)
	if ncols > 0 {
		res.Columns = make([]string, ncols)
		for i := range res.Columns {
			res.Columns[i] = d.string()
		}
	}
	if nrows := d.count(max(ncols, 1)); nrows > 0 {
		slab := make([]sqlval.Value, nrows*ncols)
		res.Rows = make([][]sqlval.Value, nrows)
		for r := range res.Rows {
			res.Rows[r], slab = slab[:ncols:ncols], slab[ncols:]
			for c := range res.Rows[r] {
				d.value(&res.Rows[r][c])
			}
		}
	}
	return res, d.finish()
}

// decodeError rebuilds the error an error frame carries, message kept byte
// for byte. A statement error comes back as backend.ErrStatement, so a
// controller whose backend is another controller (§4.2) classifies it as
// the serving controller did and does not mistake it for a backend fault.
func decodeError(body string) (remote, err error) {
	d := decoder{s: body}
	class, msg := d.byte(), d.string()
	if err := d.finish(); err != nil {
		return nil, err
	}
	switch class {
	case classOther:
		return errors.New(msg), nil
	case classStatement:
		return senterr.Wrap(backend.ErrStatement, errors.New(msg)), nil
	}
	return nil, protoErr("unknown error class %d", class)
}
