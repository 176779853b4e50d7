package sqlengine

import (
	"fmt"
	"slices"
	"testing"

	"cjdbc/internal/sqlparser"
	"cjdbc/internal/sqlval"
)

// TestBindEqualsLiteralPlans: the access planner reads a placeholder
// operand as the literal its vector binds, so a bound statement takes the
// same index probe, range, IN union and ORDER BY plan as a clone of it with
// the values bound in — not a full scan. Both share the plan's access
// summary, as clones of a cached plan do.
func TestBindEqualsLiteralPlans(t *testing.T) {
	e := New("plans")
	s := e.NewSession()
	defer s.Close()
	mustExec(t, s, "CREATE TABLE kv (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR)")
	mustExec(t, s, "CREATE INDEX kv_s ON kv (s)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO kv (id, v, s) VALUES (%d, %d, 's%03d')", i, i%7, i))
	}
	tbl := e.tables["kv"]
	resolve := envResolver(tbl.cols, 0, len(tbl.schema.Columns))
	for _, tc := range []struct {
		sql    string
		params []sqlval.Value
	}{
		{"SELECT v FROM kv WHERE id = ?", []sqlval.Value{sqlval.Int(42)}},
		{"SELECT v FROM kv WHERE ? = s", []sqlval.Value{sqlval.String_("s042")}},
		{"SELECT v FROM kv WHERE id IN (?, ?, 7)", []sqlval.Value{sqlval.Int(3), sqlval.Int(150)}},
		{"SELECT v FROM kv WHERE id >= ? AND id < ? ORDER BY id", []sqlval.Value{sqlval.Int(50), sqlval.Int(100)}},
		{"SELECT v FROM kv WHERE ? < id ORDER BY id DESC LIMIT 5", []sqlval.Value{sqlval.Int(190)}},
		{"SELECT v FROM kv WHERE id BETWEEN ? AND ? ORDER BY id", []sqlval.Value{sqlval.Int(10), sqlval.Int(20)}},
		{"SELECT v FROM kv WHERE s BETWEEN ? AND ? AND v = ?", []sqlval.Value{sqlval.String_("s100"), sqlval.String_("s110"), sqlval.Int(3)}},
		{"SELECT id, v FROM kv WHERE id < ? ORDER BY ?", []sqlval.Value{sqlval.Int(5), sqlval.Int(1)}},
	} {
		st, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := st.(*sqlparser.Select)
		bound := st.Clone().(*sqlparser.Select)
		if err := sqlparser.BindParams(bound, tc.params); err != nil {
			t.Fatal(err)
		}
		access := sqlparser.AnalyzeAccess(sel.Where, sel.OrderBy, sel.Items)
		got := planAccess(e, tbl, resolve, sel.Where, access, tc.params)
		want := planAccess(e, tbl, resolve, bound.Where, access, nil)
		if !want.indexed {
			t.Fatalf("%s: the bound clone does not plan an index", tc.sql)
		}
		if got.indexed != want.indexed || !slices.Equal(got.refs, want.refs) {
			t.Errorf("%s %v: planned %d candidates (indexed %v), the bound clone %d",
				tc.sql, tc.params, len(got.refs), got.indexed, len(want.refs))
		}
		gotOrder := planOrder(e, tbl, resolve, sel, access, tc.params)
		wantOrder := planOrder(e, tbl, resolve, bound, access, nil)
		if gotOrder.done != wantOrder.done || gotOrder.scan != wantOrder.scan || !sameBound(gotOrder.lo, wantOrder.lo) || !sameBound(gotOrder.hi, wantOrder.hi) {
			t.Errorf("%s %v: order plan %+v, the bound clone %+v", tc.sql, tc.params, gotOrder, wantOrder)
		}
	}
}

func sameBound(a, b *rangeBound) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.incl == b.incl && a.v == b.v
}
