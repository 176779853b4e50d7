package sqlparser

import (
	"errors"
	"strings"
	"testing"
)

// TestLexNonASCIIOutsideQuotes: a byte outside ASCII is part of an
// identifier only inside quotes. Outside them it is a parse error at its
// offset, found in a bounded number of allocations: the lexer must never
// stand still on a byte it cannot take (the UTF-8 lead byte of "é" once
// read as the letter "Ã", and lex appended empty tokens at one offset
// until the process ran out of memory).
func TestLexNonASCIIOutsideQuotes(t *testing.T) {
	for _, tc := range []struct {
		src    string
		offset string
	}{
		{"SELECT prénom FROM t", "offset 9"},
		{"\xc3", "offset 0"},
		{"SELECT \xc3", "offset 7"},
		{"\xff", "offset 0"},
		{"SELECT a FROM t WHERE a = \xff", "offset 26"},
	} {
		var err error
		allocs := testing.AllocsPerRun(1, func() { _, err = Parse(tc.src) })
		if !errors.Is(err, ErrParse) || !strings.Contains(err.Error(), tc.offset) {
			t.Errorf("Parse(%q): error %v, want a parse error at %s", tc.src, err, tc.offset)
		}
		if allocs > 32 {
			t.Errorf("Parse(%q): %.0f allocations, want <= 32", tc.src, allocs)
		}
	}

	var st Statement
	var err error
	allocs := testing.AllocsPerRun(1, func() { st, err = Parse(`SELECT "prénom" FROM t`) })
	if err != nil {
		t.Fatalf(`Parse(SELECT "prénom" FROM t): %v`, err)
	}
	if col := st.(*Select).Items[0].Expr.Column; col != "prénom" {
		t.Errorf("quoted identifier = %q, want prénom", col)
	}
	if allocs > 32 {
		t.Errorf(`Parse(SELECT "prénom" FROM t): %.0f allocations, want <= 32`, allocs)
	}
}

// FuzzLex: every input ends, in tokens or in ErrParse. No token but the
// final EOF is zero bytes wide, tokens advance through the input, and the
// allocations stay within a small multiple of its length.
func FuzzLex(f *testing.F) {
	for _, s := range []string{
		"SELECT prénom FROM t",
		`SELECT "prénom", 'café' FROM t -- é`,
		"SELECT a FROM t WHERE b >= 1.5e3 AND c <> ? /* x */",
		"\xc3", "\xff", "`\xaa`", "''", `""`, ".5", "1e", "a$b_c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var toks []token
		var err error
		allocs := testing.AllocsPerRun(1, func() { toks, err = lex(src) })
		if limit := float64(4*len(src) + 16); allocs > limit {
			t.Fatalf("lex(%q): %.0f allocations, want <= %.0f", src, allocs, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("lex(%q): %v is not ErrParse", src, err)
			}
			return
		}
		if n := len(toks); n == 0 || toks[n-1].kind != tokEOF || toks[n-1].pos != len(src) {
			t.Fatalf("lex(%q): tokens do not end in EOF at %d: %+v", src, len(src), toks)
		}
		for i := 1; i < len(toks); i++ {
			if toks[i].pos <= toks[i-1].pos {
				t.Fatalf("lex(%q): token %d (%+v) is zero bytes wide", src, i-1, toks[i-1])
			}
		}
	})
}
