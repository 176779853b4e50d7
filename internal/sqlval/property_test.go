package sqlval_test

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// edgeValues holds every kind at its extremes (the wire codec's edge set).
var edgeValues = []sqlval.Value{
	sqlval.Null,
	sqlval.Int(0), sqlval.Int(-1), sqlval.Int(math.MinInt64), sqlval.Int(math.MaxInt64),
	sqlval.Float(0), sqlval.Float(math.Copysign(0, -1)), sqlval.Float(math.NaN()),
	sqlval.Float(math.Inf(1)), sqlval.Float(math.Inf(-1)), sqlval.Float(math.SmallestNonzeroFloat64),
	sqlval.String_(""), sqlval.String_("x'y\x00\xff"), sqlval.String_(`back\slash`),
	sqlval.String_(strings.Repeat("kilobytes ", 700)),
	sqlval.Bool(false), sqlval.Bool(true),
	sqlval.Time(time.Time{}), sqlval.Time(time.Unix(0, 0).UTC()),
	sqlval.Time(time.Date(2004, 6, 27, 10, 0, 0, 999999999, time.UTC)),
	sqlval.Time(time.Date(2004, 6, 27, 10, 0, 0, 1, time.FixedZone("PDT", -7*3600))),
	sqlval.Time(time.Date(1, 1, 1, 0, 0, 0, 0, time.FixedZone("", 14*3600+1))),
	sqlval.Time(time.Date(585, 7, 21, 23, 34, 33, 709551616, time.UTC)),
	sqlval.Bytes(nil), sqlval.Bytes([]byte{}), sqlval.Bytes([]byte{0, 255, 128}),
}

// randomValue draws from narrow domains half the time, so that equal
// values of one kind turn up in a sample.
func randomValue(r *rand.Rand) sqlval.Value {
	narrow := r.Intn(2) == 0
	raw := make([]byte, r.Intn(12))
	r.Read(raw)
	switch sqlval.Kind(r.Intn(7)) {
	case sqlval.KindInt:
		if narrow {
			return sqlval.Int(r.Int63n(5) - 2)
		}
		return sqlval.Int(int64(r.Uint64()) >> uint(r.Intn(64)))
	case sqlval.KindFloat:
		if narrow {
			return sqlval.Float([]float64{-1, -0.5, math.Copysign(0, -1), 0, 0.5, 2, math.NaN()}[r.Intn(7)])
		}
		return sqlval.Float(math.Float64frombits(r.Uint64()))
	case sqlval.KindString:
		if narrow {
			return sqlval.String_(string(rune('a' + r.Intn(3))))
		}
		return sqlval.String_(string(raw))
	case sqlval.KindBool:
		return sqlval.Bool(r.Intn(2) == 0)
	case sqlval.KindTime:
		zone := time.FixedZone("", r.Intn(2*86399)-86399)
		if narrow {
			ns := []int64{0, 1, 5e8, 999999999}[r.Intn(4)]
			return sqlval.Time(time.Unix(r.Int63n(3), ns).In(zone))
		}
		return sqlval.Time(time.Unix(r.Int63n(1<<36)-1<<35, r.Int63n(1e9)).In(zone))
	case sqlval.KindBytes:
		if narrow {
			return sqlval.Bytes(raw[:len(raw)%2])
		}
		return sqlval.Bytes(raw)
	}
	return sqlval.Null
}

// class groups the kinds whose keys share an encoding: a bool keys as the
// integer it compares equal to.
func class(k sqlval.Kind) sqlval.Kind {
	if k == sqlval.KindBool {
		return sqlval.KindInt
	}
	return k
}

// rebuild makes v again from what its accessors return.
func rebuild(v sqlval.Value) sqlval.Value {
	switch v.K {
	case sqlval.KindInt:
		return sqlval.Int(v.I)
	case sqlval.KindFloat:
		return sqlval.Float(v.Float64())
	case sqlval.KindString:
		return sqlval.String_(v.S)
	case sqlval.KindBool:
		return sqlval.Bool(v.AsBool())
	case sqlval.KindTime:
		return sqlval.Time(v.Time())
	case sqlval.KindBytes:
		return sqlval.Bytes(v.Bytes())
	}
	return sqlval.Null
}

// checkOne checks what holds for a single value: it survives its accessors,
// AppendKey agrees with Key, and SQLLiteral parses back to an equal value.
func checkOne(t *testing.T, v sqlval.Value) {
	t.Helper()
	if got := rebuild(v); got != v {
		t.Fatalf("rebuilt %v (%#v) as %v (%#v)", v, v, got, got)
	}
	if v.K == sqlval.KindTime {
		tm := v.Time()
		if _, off := tm.Zone(); tm.Unix() != v.I || off == 0 && tm.Location() != time.UTC {
			t.Fatalf("Time() of %v = %v", v, tm)
		}
	}
	if got := string(v.AppendKey([]byte("prefix"))); got != "prefix"+v.Key() {
		t.Fatalf("AppendKey(%v) = %q, Key = %q", v, got, v.Key())
	}
	if f := v.Float64(); v.K == sqlval.KindFloat && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return // no SQL literal names them
	}
	lit := v.SQLLiteral()
	st, err := sqlparser.Parse("SELECT " + lit)
	if err != nil {
		t.Fatalf("SQLLiteral(%v) = %q does not parse: %v", v, lit, err)
	}
	e := st.(*sqlparser.Select).Items[0].Expr
	if e.Kind != sqlparser.ExprLiteral || sqlval.Compare(e.Lit, v) != 0 {
		t.Fatalf("SQLLiteral(%v) = %q parses as %v", v, lit, e.Lit)
	}
	if y := v.Time().UTC().Year(); v.K == sqlval.KindTime && y >= 0 && y <= 9999 {
		// A TIMESTAMP column reads the literal's text back to the instant;
		// the text has room for four-digit years.
		back, err := time.Parse("2006-01-02 15:04:05", e.Lit.S)
		if err != nil || !back.Equal(v.Time()) {
			t.Fatalf("time literal %q reads back as %v, %v; want %v", lit, back, err, v.Time())
		}
	}
}

// checkPair checks what holds between two values: Compare is antisymmetric,
// agrees with time.Time.Compare and cmp.Compare, and within a kind class
// two keys are equal exactly when the values compare equal.
func checkPair(t *testing.T, a, b sqlval.Value) {
	t.Helper()
	c := sqlval.Compare(a, b)
	if back := sqlval.Compare(b, a); back != -c {
		t.Fatalf("Compare(%v, %v) = %d but Compare back = %d", a, b, c, back)
	}
	switch {
	case a.K == sqlval.KindTime && b.K == sqlval.KindTime:
		if want := a.Time().Compare(b.Time()); c != want {
			t.Fatalf("Compare(%v, %v) = %d, time.Time.Compare = %d", a, b, c, want)
		}
	case a.K == sqlval.KindFloat && b.K == sqlval.KindFloat:
		if want := cmp.Compare(a.Float64(), b.Float64()); c != want {
			t.Fatalf("Compare(%v, %v) = %d, cmp.Compare = %d", a, b, c, want)
		}
	}
	if class(a.K) == class(b.K) && (a.Key() == b.Key()) != (c == 0) {
		t.Fatalf("Compare(%v, %v) = %d but keys %q and %q", a, b, c, a.Key(), b.Key())
	}
}

func TestValuePropertiesAtExtremesAndRandom(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	sample := append([]sqlval.Value(nil), edgeValues...)
	for i := 0; i < 400; i++ {
		sample = append(sample, randomValue(r))
	}
	for _, v := range sample {
		checkOne(t, v)
	}
	for _, a := range sample {
		for _, b := range sample {
			checkPair(t, a, b)
		}
		// The same instant in another zone is the same value to Compare
		// and Key.
		if a.K == sqlval.KindTime {
			checkPair(t, a, sqlval.Time(a.Time().In(time.FixedZone("", 5*3600+1800))))
		}
	}
}

// fuzzValue reads a value from fuzz input: a kind byte, then an 8-byte
// payload word, then a time's nanoseconds and zone offset, or the text.
func fuzzValue(data []byte) sqlval.Value {
	if len(data) < 9 {
		return sqlval.Null
	}
	kind, word, rest := sqlval.Kind(data[0]%7), int64(binary.BigEndian.Uint64(data[1:9])), data[9:]
	switch kind {
	case sqlval.KindInt:
		return sqlval.Int(word)
	case sqlval.KindFloat:
		return sqlval.Float(math.Float64frombits(uint64(word)))
	case sqlval.KindString:
		return sqlval.String_(string(rest))
	case sqlval.KindBool:
		return sqlval.Bool(word&1 == 1)
	case sqlval.KindTime:
		if len(rest) < 8 {
			return sqlval.Null
		}
		const span = 1 << 60 // seconds time.Time holds without wrapping
		ns := int64(binary.BigEndian.Uint32(rest) % 1e9)
		off := int(int32(binary.BigEndian.Uint32(rest[4:])) % 86400)
		return sqlval.Time(time.Unix(word%span, ns).In(time.FixedZone("", off)))
	case sqlval.KindBytes:
		return sqlval.Bytes(rest)
	}
	return sqlval.Null
}

// fuzzBytes is the inverse of fuzzValue, used to seed the corpus.
func fuzzBytes(v sqlval.Value) []byte {
	b := []byte{byte(v.K)}
	switch v.K {
	case sqlval.KindFloat:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float64()))
	case sqlval.KindTime:
		tm := v.Time()
		_, off := tm.Zone()
		b = binary.BigEndian.AppendUint64(b, uint64(tm.Unix()))
		b = binary.BigEndian.AppendUint32(b, uint32(tm.Nanosecond()))
		return binary.BigEndian.AppendUint32(b, uint32(int32(off)))
	default:
		return append(binary.BigEndian.AppendUint64(b, uint64(v.I)), v.S...)
	}
}

func FuzzValueKey(f *testing.F) {
	for i, a := range edgeValues {
		f.Add(fuzzBytes(a), fuzzBytes(edgeValues[(i+1)%len(edgeValues)]))
		f.Add(fuzzBytes(a), fuzzBytes(a))
	}
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := fuzzValue(x), fuzzValue(y)
		checkOne(t, a)
		checkPair(t, a, b)
		checkPair(t, a, a)
	})
}

func TestFuzzSeedsDecodeToTheEdgeSet(t *testing.T) {
	for _, v := range edgeValues {
		if got := fuzzValue(fuzzBytes(v)); got != v {
			t.Errorf("seed of %v decodes as %v", v, got)
		}
	}
}
