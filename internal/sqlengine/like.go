package sqlengine

import (
	"unicode"
	"unicode/utf8"
)

// likeMatch implements SQL LIKE: '%' matches any run of characters, '_'
// exactly one character (a rune, not a byte). Matching is case-insensitive,
// as MySQL's default collation is: runes compare after unicode.ToLower, one
// at a time, so nothing is copied. It is the iterative wildcard match: on a
// mismatch it backtracks only to the most recent '%', which then swallows
// one more character, so the cost is at most len(pattern)·len(s) steps
// however many '%' the pattern holds.
func likeMatch(pattern, s string) bool {
	p, i := 0, 0 // byte offsets into pattern and s
	star, mark := -1, 0
	for i < len(s) {
		if p < len(pattern) {
			pr, pw := foldRune(pattern, p)
			if pr == '%' {
				star, mark = p+pw, i
				p += pw
				continue
			}
			if sr, sw := foldRune(s, i); pr == '_' || pr == sr {
				p, i = p+pw, i+sw
				continue
			}
		}
		if star < 0 {
			return false
		}
		// Let the last '%' swallow one more character and retry from there.
		_, sw := foldRune(s, mark)
		mark += sw
		p, i = star, mark
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// foldRune decodes the rune at s[i:] lower-cased, with its width in bytes.
// An invalid byte decodes as utf8.RuneError of width 1.
func foldRune(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.ToLower(r), w
}

// likeKind classifies a LIKE pattern.
type likeKind uint8

const (
	likeExact    likeKind = iota // no wildcard
	likePrefix                   // needle followed by '%'s
	likeContains                 // '%'s, needle, '%'s
	likeOther                    // anything else: likeMatch
)

// likeMatcher is a LIKE pattern classified once. An exact, prefix or
// contains pattern keeps its literal runes folded through foldRune, as
// UTF-8 bytes; any other pattern keeps its text for likeMatch.
type likeMatcher struct {
	kind    likeKind
	needle  []byte
	pattern string
}

// compileLike classifies pattern, appending its folded needle to buf; it
// returns the matcher and the extended buffer.
func compileLike(pattern string, buf []byte) (likeMatcher, []byte) {
	start := len(buf)
	lead, trail := 0, 0 // '%'s before the first other rune, and since the last one
	for i := 0; i < len(pattern); {
		r, w := foldRune(pattern, i)
		i += w
		switch {
		case r == '_', r != '%' && trail > 0:
			return likeMatcher{kind: likeOther, pattern: pattern}, buf[:start]
		case r == '%' && len(buf) == start:
			lead++
		case r == '%':
			trail++
		default:
			buf = utf8.AppendRune(buf, r)
		}
	}
	m := likeMatcher{needle: buf[start:len(buf):len(buf)]}
	switch {
	case lead == 0 && trail == 0:
		m.kind = likeExact
	case lead == 0:
		m.kind = likePrefix
	case trail > 0 || len(m.needle) == 0:
		m.kind = likeContains
	default: // a leading '%' only
		return likeMatcher{kind: likeOther, pattern: pattern}, buf[:start]
	}
	return m, buf
}

// match reports whether s matches the pattern, as likeMatch does. A
// haystack of ASCII bytes folds byte by byte; any other is folded rune by
// rune, since a non-ASCII rune may fold to an ASCII one (KELVIN SIGN to k).
func (m *likeMatcher) match(s string) bool {
	n := m.needle
	switch {
	case m.kind == likeOther:
		return likeMatch(m.pattern, s)
	case !isASCII(s):
		return m.matchRunes(s)
	case m.kind == likeExact:
		return len(s) == len(n) && equalFoldASCII(s, n)
	case m.kind == likePrefix:
		return len(s) >= len(n) && equalFoldASCII(s[:len(n)], n)
	}
	if len(n) == 0 {
		return true
	}
	// A start is tried in full only when its first and last bytes match.
	first, last := n[0], n[len(n)-1]
	for i, end := 0, len(n)-1; end < len(s); i, end = i+1, end+1 {
		if lowerASCII(s[i]) == first && lowerASCII(s[end]) == last && equalFoldASCII(s[i+1:end+1], n[1:]) {
			return true
		}
	}
	return false
}

// lowerASCII lower-cases an ASCII letter.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// matchRunes is match for any haystack.
func (m *likeMatcher) matchRunes(s string) bool {
	switch m.kind {
	case likeExact:
		end, ok := foldPrefix(s, 0, m.needle)
		return ok && end == len(s)
	case likePrefix:
		_, ok := foldPrefix(s, 0, m.needle)
		return ok
	}
	for i := 0; ; {
		if _, ok := foldPrefix(s, i, m.needle); ok {
			return true
		}
		if i == len(s) {
			return false
		}
		_, w := foldRune(s, i)
		i += w
	}
}

// foldPrefix reports whether the runes of s from byte i on, folded, begin
// with needle's, and the byte offset in s after them.
func foldPrefix(s string, i int, needle []byte) (int, bool) {
	for j := 0; j < len(needle); {
		if i == len(s) {
			return i, false
		}
		sr, sw := foldRune(s, i)
		nr, nw := utf8.DecodeRune(needle[j:])
		if sr != nr {
			return i, false
		}
		i, j = i+sw, j+nw
	}
	return i, true
}

// isASCII reports whether s is all ASCII bytes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// equalFoldASCII reports whether the ASCII string s, lower-cased, equals
// needle, which is as long.
func equalFoldASCII(s string, needle []byte) bool {
	for i := 0; i < len(s); i++ {
		if lowerASCII(s[i]) != needle[i] {
			return false
		}
	}
	return true
}

// likes returns the LIKE matchers of b's execution under the session's
// parameters: b's own when no pattern is a parameter, else a copy in the
// session's scratch with each parameter pattern compiled into it, so that
// nothing of one execution is written to the binding sessions share.
func (s *Session) likes(b *binding) []likeMatcher {
	if len(b.likeParams) == 0 {
		return b.like
	}
	s.like, s.needle = append(s.like[:0], b.like...), s.needle[:0]
	for _, n := range b.likeParams {
		if v, ok := n.r.x.LitValue(s.params); ok && !v.IsNull() {
			s.like[n.fn], s.needle = compileLike(v.AsString(), s.needle)
		}
	}
	return s.like
}
