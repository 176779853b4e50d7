package cache

import (
	"math"
	"testing"
	"time"

	"cjdbc/internal/sqlval"
)

// TestKeyIsInjective: distinct (text, vector) pairs never share a key —
// values of different kinds with the same payload, a string and a BLOB,
// NULL and the empty string, values whose bytes move across a boundary
// between them or into the text, times that differ only in zone.
func TestKeyIsInjective(t *testing.T) {
	at := time.Date(2004, 6, 27, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		sql    string
		params []sqlval.Value
	}{
		{"SELECT v FROM t WHERE id = ?", nil},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Int(1)}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Bool(true)}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Float(math.Float64frombits(1))}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Float(1)}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.String_("1")}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Bytes([]byte("1"))}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Null}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.String_("")}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Time(at)}},
		{"SELECT v FROM t WHERE id = ?", []sqlval.Value{sqlval.Time(at.In(time.FixedZone("", 3600)))}},
		{"SELECT v FROM t WHERE a = ? AND b = ?", []sqlval.Value{sqlval.String_("ab"), sqlval.String_("c")}},
		{"SELECT v FROM t WHERE a = ? AND b = ?", []sqlval.Value{sqlval.String_("a"), sqlval.String_("bc")}},
		{"SELECT v FROM t WHERE a = ? AND b = ?", []sqlval.Value{sqlval.Null, sqlval.Null}},
		{"SELECT v FROM t WHERE a = ? AND b = ?", []sqlval.Value{sqlval.Null}},
		{"SELECT v FROM t WHERE id = 1", nil},
		{"SELECT v FROM t WHERE id = 1\x00", nil},
		{"SELECT v FROM t WHERE id = 1", []sqlval.Value{sqlval.Null}},
	}
	seen := map[string]int{}
	for i, c := range cases {
		k := string(AppendKey(nil, c.sql, c.params))
		if j, dup := seen[k]; dup && !(cases[j].sql == c.sql && len(cases[j].params) == 0 && len(c.params) == 0) {
			t.Errorf("case %d %q %v shares its key with case %d %q %v", i, c.sql, c.params, j, cases[j].sql, cases[j].params)
		}
		seen[k] = i
	}
	if len(seen) != len(cases)-1 {
		t.Errorf("%d keys for %d requests, want %d: nil and an empty vector are one request", len(seen), len(cases), len(cases)-1)
	}
}

// TestParamHitAllocatesNothing: a hit on a parameterised read builds its
// key on the stack, and a statement run with literals is the nil-vector
// case of the same key.
func TestParamHitAllocatesNothing(t *testing.T) {
	c := New(Config{Granularity: GranTable})
	const q = "SELECT a FROM t WHERE id = ?"
	params := []sqlval.Value{sqlval.String_("it's"), sqlval.Int(-7)}
	c.PutParams(q, params, []string{"t"}, []string{"a", "id"}, true, res(1))
	if allocs := testing.AllocsPerRun(100, func() {
		if c.GetParams(q, params) == nil {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Errorf("a hit allocates %.0f objects", allocs)
	}
	if c.GetParams(q, params[:1]) != nil || c.Get(q) != nil {
		t.Error("another vector hit the entry")
	}
	c.PutFootprint("  SELECT a FROM t WHERE id = 1 ", []string{"t"}, nil, false, res(1))
	if c.GetParams("SELECT a FROM t WHERE id = 1", nil) == nil {
		t.Error("Get's key is not GetParams' nil-vector key")
	}
}
