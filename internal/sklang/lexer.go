package sklang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates the lexical classes of the skeleton language.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokLBrace   // {
	tokRBrace   // }
	tokLBracket // [
	tokRBracket // ]
	tokAssign   // =
	tokPlus     // +
	tokMinus    // -
	tokStar     // *
	tokQuestion // ?
	tokDotDot   // ..
)

// String implements fmt.Stringer for diagnostics.
func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of file"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokString:
		return "string"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokAssign:
		return "'='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokQuestion:
		return "'?'"
	case tokDotDot:
		return "'..'"
	default:
		return fmt.Sprintf("tokenKind(%d)", int(k))
	}
}

// pos is a source position for error messages.
type pos struct {
	Line, Col int
}

// String renders the position as line:col.
func (p pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// token is one lexical unit.
type token struct {
	Kind tokenKind
	Text string // identifier name, literal text (unquoted for strings)
	Pos  pos
}

// Error is a positioned skeleton-language error.
type Error struct {
	Pos pos
	Msg string
}

// Error implements the error interface with a position prefix.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errorf(p pos, format string, args ...interface{}) *Error {
	return &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// lexer scans skeleton source into tokens. '#' starts a comment to
// end of line; whitespace separates tokens. It walks the source by
// byte offset and decodes a rune only at a non-ASCII byte; token text
// is a substring of the source. Columns count runes, and an invalid
// UTF-8 byte counts as one rune (utf8.RuneError), as ranging over the
// string does.
type lexer struct {
	src  string
	off  int // byte offset of the next rune
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() pos { return pos{Line: l.line, Col: l.col} }

// peekAt returns the rune starting at byte offset off and its width,
// or (0, 0) past the end.
func (l *lexer) peekAt(off int) (rune, int) {
	if off >= len(l.src) {
		return 0, 0
	}
	if c := l.src[off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[off:])
}

// advance consumes one rune of width n that is not a newline.
func (l *lexer) advance(n int) {
	l.off += n
	l.col++
}

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		switch c := l.src[l.off]; c {
		case '\n':
			l.off++
			l.line++
			l.col = 1
		case ' ', '\t', '\r', '\v', '\f':
			l.advance(1)
		case '#':
			rest := l.src[l.off:]
			end := strings.IndexByte(rest, '\n')
			if end < 0 {
				end = len(rest)
			}
			l.col += utf8.RuneCountInString(rest[:end])
			l.off += end
		default:
			if c < utf8.RuneSelf {
				return
			}
			r, n := utf8.DecodeRuneInString(l.src[l.off:])
			if !unicode.IsSpace(r) {
				return
			}
			l.advance(n)
		}
	}
}

// isDigit and isLetter are unicode.IsDigit and unicode.IsLetter with
// an ASCII fast path.
func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return '0' <= r && r <= '9'
	}
	return unicode.IsDigit(r)
}

func isLetter(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r|0x20 && r|0x20 <= 'z'
	}
	return unicode.IsLetter(r)
}

// punct maps the single-character tokens to their kinds.
var punct = [utf8.RuneSelf]tokenKind{
	'{': tokLBrace, '}': tokRBrace, '[': tokLBracket, ']': tokRBracket,
	'=': tokAssign, '+': tokPlus, '-': tokMinus, '*': tokStar, '?': tokQuestion,
}

// next returns the next token or a positioned error.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	start := l.pos()
	r, n := l.peekAt(l.off)
	switch {
	case n == 0:
		return token{Kind: tokEOF, Pos: start}, nil
	case r < utf8.RuneSelf && punct[r] != tokEOF:
		l.advance(1)
		return token{Kind: punct[r], Pos: start}, nil
	case r == '.':
		l.advance(1)
		if r, _ := l.peekAt(l.off); r != '.' {
			return token{}, errorf(start, "unexpected '.', expected '..'")
		}
		l.advance(1)
		return token{Kind: tokDotDot, Pos: start}, nil
	case r == '"':
		return l.lexString(start)
	case isDigit(r):
		return l.lexNumber(start), nil
	case isLetter(r) || r == '_':
		return l.lexIdent(start), nil
	default:
		return token{}, errorf(start, "unexpected character %q", r)
	}
}

func (l *lexer) lexString(start pos) (token, error) {
	l.advance(1) // opening quote
	rest := l.src[l.off:]
	end := strings.IndexAny(rest, "\"\n")
	if end < 0 {
		return token{}, errorf(start, "unterminated string")
	}
	if rest[end] == '\n' {
		return token{}, errorf(start, "newline in string")
	}
	text := rest[:end]
	l.col += utf8.RuneCountInString(text) + 1 // text and closing quote
	l.off += end + 1
	if !utf8.ValidString(text) {
		// Each invalid byte reads as U+FFFD, as ranging over the
		// string yields it.
		var b strings.Builder
		for _, r := range text {
			b.WriteRune(r)
		}
		text = b.String()
	}
	return token{Kind: tokString, Text: text, Pos: start}, nil
}

// lexNumber scans digits with an optional fraction part. Digits are
// never invalid UTF-8, so the text is a substring of the source.
func (l *lexer) lexNumber(start pos) token {
	from := l.off
	kind := tokInt
	l.skipDigits()
	// A fraction part — but only when not followed by a second dot
	// (the range operator '..').
	if r, _ := l.peekAt(l.off); r == '.' {
		if r, _ := l.peekAt(l.off + 1); isDigit(r) {
			kind = tokFloat
			l.advance(1)
			l.skipDigits()
		}
	}
	return token{Kind: kind, Text: l.src[from:l.off], Pos: start}
}

func (l *lexer) skipDigits() {
	for {
		r, n := l.peekAt(l.off)
		if n == 0 || !isDigit(r) {
			return
		}
		l.advance(n)
	}
}

func (l *lexer) lexIdent(start pos) token {
	from := l.off
	for {
		r, n := l.peekAt(l.off)
		if n == 0 || !(isLetter(r) || isDigit(r) || r == '_') {
			break
		}
		l.advance(n)
	}
	return token{Kind: tokIdent, Text: l.src[from:l.off], Pos: start}
}
