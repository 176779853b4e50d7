package sqlparser

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cjdbc/internal/sqlval"
)

// rewriteMacros is the request manager's former per-execution macro
// rewrite, kept as the reference SlotMacros and FillSlots must reproduce:
// on a clone bound to the client's vector, every NOW()/CURRENT_TIMESTAMP
// became the literal now, every CURRENT_DATE now's midnight UTC and every
// RAND() a literal drawn from rng, in WalkExprs order.
func rewriteMacros(st Statement, now time.Time, rng *rand.Rand) {
	WalkExprs(st, func(e *Expr) {
		if e.Kind != ExprFunc || !macroFuncs[e.Func] {
			return
		}
		switch e.Func {
		case "NOW", "CURRENT_TIMESTAMP":
			*e = Expr{Kind: ExprLiteral, Lit: sqlval.Time(now)}
		case "CURRENT_DATE":
			*e = Expr{Kind: ExprLiteral, Lit: sqlval.Time(now.Truncate(24 * time.Hour))}
		case "RAND":
			*e = Expr{Kind: ExprLiteral, Lit: sqlval.Float(rng.Float64())}
		}
	})
}

// TestSlotMacrosRenderAsRewrite: with a fixed clock and seed, a slotted
// tree rendered with its filled vector is byte-identical to the text the
// former rewrite rendered, so a file log and the distributed broadcast
// carry what they carried before. The slotted text itself, which a nested
// controller receives beside the vector and parses, has one ? per vector
// entry in vector order and renders the same text with it.
func TestSlotMacrosRenderAsRewrite(t *testing.T) {
	now := time.Date(2004, 6, 27, 12, 30, 5, 123456789, time.FixedZone("", 2*3600))
	i := func(n int64) sqlval.Value { return sqlval.Int(n) }
	for _, tc := range []struct {
		sql    string
		params []sqlval.Value
	}{
		// The TPC-W macro writes (cart, registration, buyConfirm's two,
		// admin update) and the RUBiS one (storeBid).
		{"INSERT INTO shopping_cart (sc_id, sc_time, sc_c_id) VALUES (?, NOW(), ?)", []sqlval.Value{i(1), i(2)}},
		{"INSERT INTO customer (c_id, c_uname, c_passwd, c_fname, c_lname, c_email, c_since, c_discount, c_addr_id) VALUES (?, ?, ?, 'new', 'customer', ?, NOW(), 0, ?)",
			[]sqlval.Value{i(3), sqlval.String_("u'3"), sqlval.String_("pw"), sqlval.String_("u3@x"), i(4)}},
		{"INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_status) VALUES (?, ?, NOW(), ?, ?, 'pending')",
			[]sqlval.Value{i(5), i(6), sqlval.Float(10.5), sqlval.Float(12)}},
		{"INSERT INTO cc_xacts (cx_o_id, cx_type, cx_amount, cx_auth_date) VALUES (?, 'VISA', 33.0, NOW())", []sqlval.Value{i(5)}},
		{"UPDATE item SET i_cost = ?, i_pub_date = NOW() WHERE i_id = ?", []sqlval.Value{sqlval.Float(9.25), i(7)}},
		{"INSERT INTO bids (b_id, b_u_id, b_it_id, b_qty, b_bid, b_date) VALUES (?, ?, ?, 1, ?, NOW())",
			[]sqlval.Value{i(8), i(9), i(10), sqlval.Float(99.5)}},
		// A multi-row INSERT drawing twice, a CTAS, a column default, a
		// WHERE comparison and the bare forms.
		{"INSERT INTO r (id, x, y) VALUES (?, RAND(), 1), (?, 2, RAND())", []sqlval.Value{i(1), i(2)}},
		{"CREATE TABLE c AS SELECT NOW() AS at, RAND() AS r, CURRENT_DATE() AS d", nil},
		{"CREATE TABLE dt (id INTEGER PRIMARY KEY, at TIMESTAMP DEFAULT NOW())", nil},
		{"DELETE FROM ev WHERE d < NOW() AND id > ?", []sqlval.Value{i(100)}},
		{"UPDATE ev SET d = CURRENT_TIMESTAMP, day = CURRENT_DATE WHERE id = ?", []sqlval.Value{i(1)}},
		// LIMIT offset, count numbers its placeholders against the order
		// they render in, so the client's parameters fill out of order.
		{"INSERT INTO ev (id, d) SELECT id, NOW() FROM src ORDER BY id LIMIT ?, ?", []sqlval.Value{i(3), i(4)}},
	} {
		old := mustParse(t, tc.sql)
		if err := BindParams(old, tc.params); err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		rewriteMacros(old, now, rand.New(rand.NewSource(7)))
		want := Render(old)

		st := mustParse(t, tc.sql)
		slots := SlotMacros(st)
		vec := FillSlots(slots, tc.params, now, rand.New(rand.NewSource(7)))
		if got := RenderParams(st, vec); got != want {
			t.Errorf("%s:\n slotted and filled %s\n rewritten          %s", tc.sql, got, want)
		}
		text := Render(st)
		nested := mustParse(t, text)
		if HasMacros(nested) || NumParams(nested) != len(vec) {
			t.Errorf("%s: slotted text %q has %d placeholders for %d values", tc.sql, text, NumParams(nested), len(vec))
		}
		if got := RenderParams(nested, vec); got != want {
			t.Errorf("%s: the slotted text parsed afresh renders\n %s\nwant %s", tc.sql, got, want)
		}
	}
}

// TestSlotMacrosNumberInTextOrder: SlotMacros numbers every placeholder
// and macro call in the order the text holds them and reports where each
// value comes from; under LIMIT offset, count the client's second value
// renders first.
func TestSlotMacrosNumberInTextOrder(t *testing.T) {
	st := mustParse(t, "INSERT INTO t (a, b, c, d) SELECT ?, RAND(), ?, x FROM u WHERE at < CURRENT_DATE LIMIT ?, ?")
	slots := SlotMacros(st)
	want := []Slot{{Param: 0}, {Macro: "RAND"}, {Param: 1}, {Macro: "CURRENT_DATE"}, {Param: 3}, {Param: 2}}
	if !reflect.DeepEqual(slots, want) {
		t.Fatalf("slots %v, want %v", slots, want)
	}
	n := 0
	WalkExprs(st, func(e *Expr) {
		if e.Kind == ExprParam {
			if e.ParamIdx != n {
				t.Errorf("parameter %d in text order is numbered %d", n, e.ParamIdx)
			}
			n++
		}
	})
	if n != len(want) {
		t.Errorf("%d parameters, want %d", n, len(want))
	}
}
