// Package sqlparser implements the SQL dialect understood by the cluster:
// a lexer, an AST, a recursive-descent parser and the query analysis the
// controller needs for routing (statement class, referenced tables,
// deterministic-macro detection).
//
// The dialect covers what the TPC-W and RUBiS workloads and the recovery
// machinery require: CREATE/DROP TABLE and INDEX, temporary tables, INSERT
// (VALUES and SELECT forms), UPDATE, DELETE, SELECT with joins, aggregates,
// GROUP BY/HAVING, ORDER BY and LIMIT, and transaction demarcation.
package sqlparser

import "strings"

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp    // operators and punctuation
	tokParam // ? placeholder
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep original case
	pos  int
}

// keywords recognised by the lexer. Identifiers matching these (case
// insensitively) become tokKeyword.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "DROP": true, "INDEX": true, "UNIQUE": true, "ON": true,
	"PRIMARY": true, "KEY": true, "NOT": true, "NULL": true, "DEFAULT": true,
	"AND": true, "OR": true, "IN": true, "IS": true, "LIKE": true,
	"BETWEEN": true, "ORDER": true, "BY": true, "GROUP": true, "HAVING": true,
	"LIMIT": true, "OFFSET": true, "ASC": true, "DESC": true, "AS": true,
	"DISTINCT": true, "JOIN": true, "INNER": true, "LEFT": true, "OUTER": true,
	"BEGIN": true, "START": true, "TRANSACTION": true, "COMMIT": true,
	"ROLLBACK": true, "ABORT": true, "TRUE": true, "FALSE": true,
	"TEMPORARY": true, "TEMP": true, "IF": true, "EXISTS": true,
	"INTEGER": true, "INT": true, "BIGINT": true, "FLOAT": true, "DOUBLE": true,
	"REAL": true, "VARCHAR": true, "TEXT": true, "CHAR": true, "BOOLEAN": true,
	"TIMESTAMP": true, "DATETIME": true, "BLOB": true, "NUMERIC": true,
	"DECIMAL": true, "AUTO_INCREMENT": true, "REFERENCES": true,
	"FOREIGN": true, "CROSS": true, "USE": true, "SHOW": true, "TABLES": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns a descriptive error with byte offset on any
// malformed literal and on any byte it cannot start a token with.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.toks = append(l.toks, token{kind: tokNumber, text: l.lexNumber(), pos: start})
		case c >= 0x80:
			// Identifiers are ASCII unless quoted.
			return nil, parseErrf("non-ASCII byte %#x at offset %d outside quotes", c, start)
		case isIdentStart(c), c == '`', c == '"':
			id, err := l.lexIdent()
			if err != nil {
				return nil, err
			}
			up := strings.ToUpper(id)
			if keywords[up] {
				l.toks = append(l.toks, token{kind: tokKeyword, text: up, pos: start})
			} else {
				l.toks = append(l.toks, token{kind: tokIdent, text: id, pos: start})
			}
		case c == '?':
			l.pos++
			l.toks = append(l.toks, token{kind: tokParam, text: "?", pos: start})
		default:
			op, err := l.lexOp()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokOp, text: op, pos: start})
		}
		if l.pos == start {
			// Every token consumes input, or lex would append empty tokens
			// at one offset forever.
			return nil, parseErrf("empty token at offset %d", start)
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || c >= '0' && c <= '9' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func (l *lexer) lexString() (string, error) {
	// Opening quote already seen.
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			// MySQL-style backslash escapes, needed because the workloads use them.
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", parseErrf("unterminated string literal at offset %d", l.pos)
}

func (l *lexer) lexNumber() string {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			return l.src[start:l.pos]
		}
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexIdent() (string, error) {
	c := l.src[l.pos]
	if c == '`' || c == '"' {
		quote := c
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return "", parseErrf("unterminated quoted identifier at offset %d", start)
		}
		id := l.src[start:l.pos]
		l.pos++
		return id, nil
	}
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	return l.src[start:l.pos], nil
}

func (l *lexer) lexOp() (string, error) {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=", "||":
		l.pos += 2
		return two, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '=', '<', '>', '+', '-', '*', '/', '%', ';', '.':
		l.pos++
		return string(c), nil
	}
	return "", parseErrf("unexpected character %q at offset %d", c, l.pos)
}
