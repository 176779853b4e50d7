package sqlval

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.K != KindNull {
		t.Fatalf("zero kind = %v", v.K)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindTime: "TIMESTAMP",
		KindBytes: "BLOB",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if got, _ := Int(42).AsInt(); got != 42 {
		t.Errorf("Int(42).AsInt() = %d", got)
	}
	if got, _ := Float(2.5).AsFloat(); got != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %g", got)
	}
	if got := String_("x").AsString(); got != "x" {
		t.Errorf("String_(x) = %q", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool round trip failed")
	}
	now := time.Now()
	if got := Time(now).Time(); !got.Equal(now) {
		t.Error("Time round trip failed")
	}
	if got := Bytes([]byte("ab")).AsString(); got != "ab" {
		t.Errorf("Bytes = %q", got)
	}
}

func TestCoercions(t *testing.T) {
	if i, err := String_(" 17 ").AsInt(); err != nil || i != 17 {
		t.Errorf("AsInt(' 17 ') = %d, %v", i, err)
	}
	if _, err := String_("abc").AsInt(); err == nil {
		t.Error("AsInt('abc') should fail")
	}
	if f, err := Int(3).AsFloat(); err != nil || f != 3.0 {
		t.Errorf("AsFloat(3) = %g, %v", f, err)
	}
	if f, err := String_("2.5").AsFloat(); err != nil || f != 2.5 {
		t.Errorf("AsFloat('2.5') = %g, %v", f, err)
	}
	if i, err := Null.AsInt(); err != nil || i != 0 {
		t.Errorf("AsInt(NULL) = %d, %v", i, err)
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2.0), Int(2), 0},
		{String_("a"), String_("b"), -1},
		{String_("b"), String_("b"), 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
		{Bool(true), Int(1), 0},
		{Bool(false), Bool(true), -1},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
		{Time(time.Unix(2, 0)), Time(time.Unix(2, 0)), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Value { return randomValue(rng) }
	for i := 0; i < 500; i++ {
		a, b := gen(), gen()
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("Compare not antisymmetric for %v, %v", a, b)
		}
	}
}

func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null
	case 1:
		return Int(rng.Int63n(100) - 50)
	case 2:
		return Float(rng.Float64()*100 - 50)
	case 3:
		return String_(string(rune('a' + rng.Intn(26))))
	case 4:
		return Bool(rng.Intn(2) == 0)
	default:
		return Time(time.Unix(rng.Int63n(1e6), 0))
	}
}

func TestKeyEqualValuesShareKey(t *testing.T) {
	if Int(2).Key() != Float(2.0).Key() {
		t.Error("Int(2) and Float(2.0) must share hash key")
	}
	if Int(2).Key() == Int(3).Key() {
		t.Error("distinct ints must not share key")
	}
	if String_("2").Key() == Int(2).Key() {
		t.Error("string '2' must not collide with int 2")
	}
}

// Property: for any pair of int64, Compare agrees with native ordering.
func TestQuickCompareInts(t *testing.T) {
	f := func(a, b int64) bool {
		got := Compare(Int(a), Int(b))
		switch {
		case a < b:
			return got == -1
		case a > b:
			return got == 1
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SQLLiteral of a string always survives a quote round trip shape
// (balanced quotes and backslashes, original retrievable by stripping).
func TestQuickStringLiteralEscaping(t *testing.T) {
	f := func(s string) bool {
		lit := String_(s).SQLLiteral()
		if len(lit) < 2 || lit[0] != '\'' || lit[len(lit)-1] != '\'' {
			return false
		}
		// Un-escape and compare.
		body := lit[1 : len(lit)-1]
		var out []byte
		for i := 0; i < len(body); i++ {
			if body[i] == '\'' || body[i] == '\\' {
				if i+1 >= len(body) || body[i+1] != body[i] {
					return false // unbalanced quote or backslash
				}
				i++
			}
			out = append(out, body[i])
		}
		return string(out) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if !Equal(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	v, err := Add(Int(2), Int(3))
	check(v, err, Int(5))
	v, err = Sub(Int(2), Int(3))
	check(v, err, Int(-1))
	v, err = Mul(Int(4), Float(0.5))
	check(v, err, Float(2))
	v, err = Div(Int(7), Int(2))
	check(v, err, Float(3.5))
	v, err = Mod(Int(7), Int(2))
	check(v, err, Int(1))

	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("division by zero must fail")
	}
	if _, err := Mod(Int(1), Int(0)); err == nil {
		t.Error("modulo by zero must fail")
	}
	// NULL propagates.
	v, err = Add(Null, Int(1))
	check(v, err, Null)
	v, err = Div(Null, Int(0))
	check(v, err, Null)
}

func TestBytesCopiesItsArgument(t *testing.T) {
	b := []byte{1, 2, 3}
	v := Bytes(b)
	b[0] = 9
	if got := v.Bytes(); got[0] != 1 {
		t.Fatalf("Bytes(b) changed with b: %v", got)
	}
	v.Bytes()[1] = 9
	if got := v.Bytes(); got[1] != 2 {
		t.Fatalf("writing to v.Bytes() changed v: %v", got)
	}
}

func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestSQLLiteralForms(t *testing.T) {
	if got := Int(-3).SQLLiteral(); got != "-3" {
		t.Errorf("int literal = %q", got)
	}
	if got := String_("a'b").SQLLiteral(); got != "'a''b'" {
		t.Errorf("string literal = %q", got)
	}
	if got := Bytes([]byte(`a\b`)).SQLLiteral(); got != `'a\\b'` {
		t.Errorf("blob literal = %q", got)
	}
	if got := Null.SQLLiteral(); got != "NULL" {
		t.Errorf("null literal = %q", got)
	}
	if got := Bool(true).SQLLiteral(); got != "TRUE" {
		t.Errorf("bool literal = %q", got)
	}
	tm := time.Date(2004, 6, 27, 10, 0, 0, 0, time.UTC)
	if got := Time(tm).SQLLiteral(); got != "'2004-06-27 10:00:00'" {
		t.Errorf("time literal = %q", got)
	}
	// The recovery log stores rendered SQL: a fraction of a second must
	// survive it.
	tm = time.Date(2024, 1, 2, 3, 4, 5, 123456789, time.UTC)
	if got := Time(tm).SQLLiteral(); got != "'2024-01-02 03:04:05.123456789'" {
		t.Errorf("sub-second time literal = %q", got)
	}
	if got := Time(tm).AsString(); got != "2024-01-02 03:04:05.123456789" {
		t.Errorf("sub-second time as string = %q", got)
	}
}

func TestAsBool(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false}, {Int(0), false}, {Int(1), true},
		{Float(0), false}, {Float(0.1), true},
		{String_(""), false}, {String_("x"), true},
		{Bool(true), true}, {Bool(false), false},
		// A time or a BLOB is true as the string literal it renders as (the
		// text a recovery log replays) is: a time always, a BLOB unless empty.
		{Time(time.Unix(0, 0)), true}, {Bytes(nil), false}, {Bytes([]byte{0}), true},
	}
	for _, c := range cases {
		if got := c.v.AsBool(); got != c.want {
			t.Errorf("AsBool(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
