package sqlengine

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%", "", true},
		{"%", "abc", true},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"abc", "abc", true},
		{"ABC", "abc", true},
		{"a%z", "abc", false},
		{"", "", true},
		{"", "a", false},
		{"%%b", "ab", true},
		{"_", "", false},
		{"%_", "", false},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "aXcYb", false},
		{"%ab", "aab", true},
		{"%Book 17%", "The Book 172", true},
		{"ln3%", "LN31", true},
		// '_' is one character, not one byte.
		{"_", "é", true},
		{"__", "é", false},
		{"_mega", "Ωmega", true},
		{"a_c", "aéc", true},
		{"%_%", "ü", true},
		// Case folds per rune beyond ASCII.
		{"ω%", "Ωmega", true},
		{"É%", "école", true},
		{"%Ü", "MÜ", true},
		{"ß", "SS", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

// TestLikeMatchLinear: a pattern is client input (a bound parameter), so a
// run of '%' must not make matching exponential in it.
func TestLikeMatchLinear(t *testing.T) {
	s := strings.Repeat("a", 40)
	pattern := strings.Repeat("%a", 8) + "%b"
	start := time.Now()
	if likeMatch(pattern, s) {
		t.Fatalf("likeMatch(%q, %q) = true", pattern, s)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("likeMatch(%q, 40×a) took %v, want well under 100ms", pattern, d)
	}
}

// TestLikeMatchAllocs: folding case copies nothing, and neither does a
// compiled matcher, nor compiling into a buffer with room.
func TestLikeMatchAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		likeMatch("%BOOK 1%", "Some Book 12 Title")
		likeMatch("_MEGA%", "Ωmega Point")
	})
	if allocs != 0 {
		t.Fatalf("likeMatch allocates %v times per call pair, want 0", allocs)
	}
	buf := make([]byte, 0, 64)
	allocs = testing.AllocsPerRun(100, func() {
		for _, c := range [][2]string{
			{"%BOOK 1%", "Some Book 12 Title"},
			{"ln1%", "LN17"},
			{"Ωmega", "ωMEGA"},
			{"%É%", "café"},
			{"_MEGA%", "Ωmega Point"},
		} {
			m, _ := compileLike(c[0], buf[:0])
			if !m.match(c[1]) {
				t.Fatalf("compileLike(%q).match(%q) = false", c[0], c[1])
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled LIKE allocates %v times per five matches, want 0", allocs)
	}
}

// TestCompileLikeKinds: a pattern is classified once, from its folded
// runes; only exact, prefix and contains patterns skip likeMatch.
func TestCompileLikeKinds(t *testing.T) {
	for _, c := range []struct {
		pattern string
		kind    likeKind
		needle  string
	}{
		{"", likeExact, ""},
		{"ABC", likeExact, "abc"},
		{"ln1%", likePrefix, "ln1"},
		{"ln1%%", likePrefix, "ln1"},
		{"%Book 1%", likeContains, "book 1"},
		{"%", likeContains, ""},
		{"%%", likeContains, ""},
		{"%É%", likeContains, "é"},
		{"\u212a%", likePrefix, "k"}, // KELVIN SIGN
		{"%İ%", likeContains, "i"},
		{"%abc", likeOther, ""},
		{"a%c", likeOther, ""},
		{"a_c", likeOther, ""},
		{"_%", likeOther, ""},
		{"%a%b%", likeOther, ""},
	} {
		m, _ := compileLike(c.pattern, nil)
		if m.kind != c.kind || string(m.needle) != c.needle {
			t.Errorf("compileLike(%q) = kind %d needle %q, want kind %d needle %q", c.pattern, m.kind, m.needle, c.kind, c.needle)
		}
	}
}

// likeReference is the matcher likeMatch replaced, made rune-wise: both
// sides are folded with strings.ToLower, then matched recursively, trying
// every split at each '%'. It is exponential in the number of '%', so it is
// only fed short inputs.
func likeReference(pattern, s string) bool {
	return likeRefRunes([]rune(strings.ToLower(pattern)), []rune(strings.ToLower(s)))
}

func likeRefRunes(p, s []rune) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRefRunes(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

// FuzzLikeMatch checks likeMatch and the compiled matcher against
// likeReference on inputs of at most twelve runes each. The seeds include
// runes that fold to ASCII (KELVIN SIGN to k, İ to i) in either the
// pattern or the haystack, and invalid bytes, which fold to RuneError.
func FuzzLikeMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{"%Book 17%", "The Book 172"},
		{"ln3%", "ln31"},
		{"_", "é"},
		{"_mega", "Ωmega"},
		{"%a%a%a%b", "aaaaaaaaaaaa"},
		{"a_c%", "AéC"},
		{"%%_", ""},
		{"\xff%", "\xfe"},
		{"%k%", "\u212a"},
		{"\u212a", "K"},
		{"K%", "\u212aelvin"},
		{"%i%", "x\u0130y"},
		{"\u0130%", "ix"},
		{"%\xff%", "a\xffb"},
		{"\xff", "\ufffd"},
		{"%%", "abc"},
		{"_%", ""},
		{"", ""},
		{"", "a"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		if utf8.RuneCountInString(pattern) > 12 || utf8.RuneCountInString(s) > 12 {
			return
		}
		want := likeReference(pattern, s)
		if got := likeMatch(pattern, s); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, reference %v", pattern, s, got, want)
		}
		m, _ := compileLike(pattern, nil)
		if got := m.match(s); got != want {
			t.Fatalf("compileLike(%q).match(%q) = %v (kind %d), reference %v", pattern, s, got, m.kind, want)
		}
	})
}
