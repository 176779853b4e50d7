// Package sqlval defines the typed values that flow through the SQL engine,
// the virtual database and the wire protocol. A Value is a small tagged
// union; the zero Value is SQL NULL.
package sqlval

import (
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

// Value is a single SQL value. Exactly one of the payload fields is
// meaningful, selected by K.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	T time.Time
	B []byte
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

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

// Time returns a timestamp value.
func Time(t time.Time) Value { return Value{K: KindTime, T: t} }

// Bytes returns a BLOB value.
func Bytes(b []byte) Value { return Value{K: KindBytes, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// AsBool interprets v as a truth value. NULL is false.
func (v Value) AsBool() bool {
	switch v.K {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
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
		return int64(v.F), nil
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
		return v.F, nil
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

// AsString renders v as a string using SQL text conventions.
func (v Value) AsString() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindTime:
		return v.T.UTC().Format("2006-01-02 15:04:05")
	case KindBytes:
		return string(v.B)
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

// SQLLiteral renders v as a literal that the parser accepts, used when
// rewriting macros and when replaying recovery logs.
func (v Value) SQLLiteral() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindTime:
		// Backends execute bound values at full precision, so the rendered
		// literal — what the recovery log stores — must keep the fraction.
		return "'" + v.T.UTC().Format("2006-01-02 15:04:05.999999999") + "'"
	case KindBytes:
		return "'" + strings.ReplaceAll(string(v.B), "'", "''") + "'"
	default:
		return v.AsString()
	}
}

// numericKind reports whether the kind participates in arithmetic.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// Compare orders a and b, returning -1, 0 or +1. NULL sorts before
// everything and equals only NULL (three-valued logic is handled by the
// expression evaluator, not here). Values of different numeric kinds compare
// numerically; otherwise values compare as strings.
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
			switch {
			case a.I < b.I:
				return -1
			case a.I > b.I:
				return 1
			}
			return 0
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.K == KindTime && b.K == KindTime {
		switch {
		case a.T.Before(b.T):
			return -1
		case a.T.After(b.T):
			return 1
		}
		return 0
	}
	// Mixed or textual comparison.
	return strings.Compare(a.AsString(), b.AsString())
}

// Equal reports whether a and b compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Key returns a map key that is equal for values that Compare equal within
// the same kind class, used for hash indexes and GROUP BY.
func (v Value) Key() string {
	switch v.K {
	case KindNull:
		return "\x00N"
	case KindInt, KindBool:
		return "\x00i" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			// Integral floats hash like the equal integer.
			return "\x00i" + strconv.FormatInt(int64(v.F), 10)
		}
		return "\x00f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindTime:
		return "\x00t" + strconv.FormatInt(v.T.UnixNano(), 10)
	case KindBytes:
		return "\x00b" + string(v.B)
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
	case KindInt, KindBool:
		return strconv.AppendInt(append(b, 0, 'i'), v.I, 10)
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.AppendInt(append(b, 0, 'i'), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(b, 0, 'f'), v.F, 'g', -1, 64)
	case KindTime:
		return strconv.AppendInt(append(b, 0, 't'), v.T.UnixNano(), 10)
	case KindBytes:
		return append(append(b, 0, 'b'), v.B...)
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

// Clone returns a deep copy of v (BLOB payloads are copied).
func (v Value) Clone() Value {
	if v.K == KindBytes && v.B != nil {
		b := make([]byte, len(v.B))
		copy(b, v.B)
		v.B = b
	}
	return v
}

// CloneRow deep-copies a row of values.
func CloneRow(r []Value) []Value {
	out := make([]Value, len(r))
	for i, v := range r {
		out[i] = v.Clone()
	}
	return out
}
