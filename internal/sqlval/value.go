// Package sqlval defines the typed values that flow through the SQL engine,
// the virtual database and the wire protocol. A Value is a small tagged
// union; the zero Value is SQL NULL.
package sqlval

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

// Value kinds. KindNull is the zero value so that an uninitialised Value is
// SQL NULL, mirroring the zero-value-is-useful convention.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
	KindBytes
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	case KindBytes:
		return "BLOB"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL value in 32 bytes: word 0 holds the kind, a time's
// zone offset and its nanoseconds, I the one scalar payload, S the text.
// Build it with the constructors and read floats, times and bytes through
// Float64, Time and Bytes. A Value is immutable: BLOB payloads live in S as
// a string, so no caller's []byte is ever shared with a stored row.
type Value struct {
	K    Kind
	zone [3]byte // a time's zone offset in seconds east of UTC, 24-bit two's complement
	ns   int32   // a time's nanoseconds within the second
	// I is the integer or bool payload, a float's math.Float64bits, or a
	// time's unix seconds.
	I int64
	// S is the VARCHAR payload, or a BLOB's bytes.
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{K: KindFloat, I: int64(math.Float64bits(f))} }

// String_ returns a string value. The underscore avoids colliding with the
// fmt.Stringer method.
func String_(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// maxZone bounds the zone offsets a time keeps: a day, as on the wire. A
// time in a zone further out keeps its instant and reads back in UTC.
const maxZone = 86399

// Time returns a timestamp value: the instant and its zone offset. The
// zone's name is not kept.
func Time(t time.Time) Value {
	v := Value{K: KindTime, I: t.Unix(), ns: int32(t.Nanosecond())}
	if _, off := t.Zone(); off >= -maxZone && off <= maxZone {
		v.zone = [3]byte{byte(off), byte(off >> 8), byte(off >> 16)}
	}
	return v
}

// Bytes returns a BLOB value holding a copy of b.
func Bytes(b []byte) Value { return Value{K: KindBytes, S: string(b)} }

// Float64 returns a FLOAT value's payload.
func (v Value) Float64() float64 { return math.Float64frombits(uint64(v.I)) }

// zoneOffset returns a TIMESTAMP value's zone offset in seconds.
func (v Value) zoneOffset() int {
	return int(int32(uint32(v.zone[0])|uint32(v.zone[1])<<8|uint32(v.zone[2])<<16) << 8 >> 8)
}

// Time returns a TIMESTAMP value's instant in its zone. Offset 0 is
// time.UTC, and time.FixedZone caches whole hours from -12 to +14, so only
// another offset allocates its zone.
func (v Value) Time() time.Time {
	t := time.Unix(v.I, int64(v.ns))
	if off := v.zoneOffset(); off != 0 {
		return t.In(time.FixedZone("", off))
	}
	return t.UTC()
}

// Bytes returns a copy of a BLOB value's payload.
func (v Value) Bytes() []byte { return []byte(v.S) }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsBool interprets v as a truth value. NULL is false. A time or a BLOB is
// as true as the string literal it renders as, so a value and its logged
// text coerce alike: a time always, a BLOB unless it is empty.
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.Float64() != 0
	case KindString, KindBytes:
		return v.S != ""
	case KindTime:
		return true
	default:
		return false
	}
}

// AsInt coerces v to an integer, returning an error when the conversion is
// not meaningful.
func (v Value) AsInt() (int64, error) {
	switch v.K {
	case KindInt, KindBool:
		return v.I, nil
	case KindFloat:
		return int64(v.Float64()), nil
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		if err != nil {
			return 0, errf("cannot convert %q to integer", v.S)
		}
		return i, nil
	case KindNull:
		return 0, nil
	}
	return 0, errf("cannot convert %s to integer", v.K)
}

// AsFloat coerces v to a float, returning an error when the conversion is
// not meaningful.
func (v Value) AsFloat() (float64, error) {
	switch v.K {
	case KindInt, KindBool:
		return float64(v.I), nil
	case KindFloat:
		return v.Float64(), nil
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		if err != nil {
			return 0, errf("cannot convert %q to float", v.S)
		}
		return f, nil
	case KindNull:
		return 0, nil
	}
	return 0, errf("cannot convert %s to float", v.K)
}

// timeLayout renders a TIMESTAMP in UTC, with the fraction of a second only
// when there is one. AsString and SQLLiteral share it, so a time compares
// equal to the string literal that names it.
const timeLayout = "2006-01-02 15:04:05.999999999"

// AsString renders v as a string using SQL text conventions.
func (v Value) AsString() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case KindString, KindBytes:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindTime:
		return time.Unix(v.I, int64(v.ns)).UTC().Format(timeLayout)
	}
	return ""
}

// String implements fmt.Stringer. Strings are quoted so that debug output is
// unambiguous.
func (v Value) String() string {
	if v.K == KindString {
		return strconv.Quote(v.S)
	}
	return v.AsString()
}

// literalEscaper doubles quotes and escapes backslashes, which the parser
// reads as MySQL escapes.
var literalEscaper = strings.NewReplacer("'", "''", `\`, `\\`)

// SQLLiteral renders v as a literal that the parser reads back as v, used
// when rewriting macros and when replaying recovery logs. A NaN or infinite
// float has no literal.
func (v Value) SQLLiteral() string {
	switch v.K {
	case KindString, KindBytes:
		return "'" + literalEscaper.Replace(v.S) + "'"
	case KindTime:
		return "'" + v.AsString() + "'"
	default:
		return v.AsString()
	}
}

// AppendSQLLiteral appends SQLLiteral's text to dst, an integer without an
// intermediate string.
func (v Value) AppendSQLLiteral(dst []byte) []byte {
	if v.K == KindInt {
		return strconv.AppendInt(dst, v.I, 10)
	}
	return append(dst, v.SQLLiteral()...)
}

// numericKind reports whether the kind participates in arithmetic.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// Compare orders a and b, returning -1, 0 or +1. NULL sorts before
// everything and equals only NULL (three-valued logic is handled by the
// expression evaluator, not here). Values of different numeric kinds compare
// numerically, a NaN below every number and equal to a NaN (cmp.Compare);
// times compare by instant; otherwise values compare as strings.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == b.K:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(a.K) && numericKind(b.K) {
		if a.K == KindInt && b.K == KindInt {
			return cmp.Compare(a.I, b.I)
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return cmp.Compare(af, bf)
	}
	if a.K == KindTime && b.K == KindTime {
		if c := cmp.Compare(a.I, b.I); c != 0 {
			return c
		}
		return cmp.Compare(a.ns, b.ns)
	}
	// Mixed or textual comparison.
	return strings.Compare(a.AsString(), b.AsString())
}

// Equal reports whether a and b compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// IntKey reports the integer whose key v shares: an INTEGER's or a
// BOOLEAN's own, and an integral FLOAT's below 1e15 in magnitude, so 1,
// 1.0 and TRUE are one key. Every other value has none. It is the integer
// class of Key and AppendKey.
func (v Value) IntKey() (int64, bool) {
	switch v.K {
	case KindInt, KindBool:
		return v.I, true
	case KindFloat:
		if f := v.Float64(); f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return int64(f), true
		}
	}
	return 0, false
}

// Key returns a map key that is equal for values that Compare equal within
// the same kind class, used for hash indexes and GROUP BY.
func (v Value) Key() string {
	switch v.K {
	case KindNull:
		return "\x00N"
	case KindInt, KindBool, KindFloat:
		if i, ok := v.IntKey(); ok {
			return "\x00i" + strconv.FormatInt(i, 10)
		}
		return "\x00f" + strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case KindTime:
		var buf [32]byte
		return string(v.AppendKey(buf[:0]))
	case KindBytes:
		return "\x00b" + v.S
	default:
		return "\x00s" + v.S
	}
}

// AppendKey appends the Key() encoding of v to b and returns the extended
// buffer. Index maintenance uses it with a reusable scratch buffer so that
// probing an index key costs no string allocation (map lookups on a
// string(b) conversion do not allocate).
func (v Value) AppendKey(b []byte) []byte {
	switch v.K {
	case KindNull:
		return append(b, 0, 'N')
	case KindInt, KindBool, KindFloat:
		if i, ok := v.IntKey(); ok {
			return strconv.AppendInt(append(b, 0, 'i'), i, 10)
		}
		return strconv.AppendFloat(append(b, 0, 'f'), v.Float64(), 'g', -1, 64)
	case KindTime:
		// Seconds and nanoseconds, not UnixNano, which overflows outside
		// the years 1678-2262.
		b = strconv.AppendInt(append(b, 0, 't'), v.I, 10)
		return strconv.AppendInt(append(b, '.'), int64(v.ns), 10)
	case KindBytes:
		return append(append(b, 0, 'b'), v.S...)
	default:
		return append(append(b, 0, 's'), v.S...)
	}
}

// Add returns a+b with SQL numeric promotion.
func Add(a, b Value) (Value, error) { return arith(a, b, '+') }

// Sub returns a-b with SQL numeric promotion.
func Sub(a, b Value) (Value, error) { return arith(a, b, '-') }

// Mul returns a*b with SQL numeric promotion.
func Mul(a, b Value) (Value, error) { return arith(a, b, '*') }

// Div returns a/b with SQL numeric promotion; division always yields a
// float, and x/0 is an error.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	bf, err := b.AsFloat()
	if err != nil {
		return Null, err
	}
	if bf == 0 {
		return Null, errf("division by zero")
	}
	af, err := a.AsFloat()
	if err != nil {
		return Null, err
	}
	return Float(af / bf), nil
}

// Mod returns a%b on integers.
func Mod(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	ai, err := a.AsInt()
	if err != nil {
		return Null, err
	}
	bi, err := b.AsInt()
	if err != nil {
		return Null, err
	}
	if bi == 0 {
		return Null, errf("modulo by zero")
	}
	return Int(ai % bi), nil
}

func arith(a, b Value, op byte) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.K == KindInt && b.K == KindInt {
		switch op {
		case '+':
			return Int(a.I + b.I), nil
		case '-':
			return Int(a.I - b.I), nil
		case '*':
			return Int(a.I * b.I), nil
		}
	}
	af, err := a.AsFloat()
	if err != nil {
		return Null, err
	}
	bf, err := b.AsFloat()
	if err != nil {
		return Null, err
	}
	switch op {
	case '+':
		return Float(af + bf), nil
	case '-':
		return Float(af - bf), nil
	case '*':
		return Float(af * bf), nil
	}
	return Null, errf("unknown operator %q", op)
}
