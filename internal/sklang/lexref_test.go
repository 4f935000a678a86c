package sklang

// The rune-based lexer the byte-offset lexer in lexer.go replaced,
// kept unchanged (bar its names) as the oracle FuzzLexMatchesReference
// checks the production lexer against: same tokens, same positions,
// same errors.

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// lexAll scans the whole source with the production lexer.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == tokEOF {
			return toks, nil
		}
	}
}

// refLexer scans skeleton source into tokens. '#' starts a comment to
// end of line; whitespace separates tokens.
type refLexer struct {
	src  []rune
	off  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1, col: 1}
}

func (l *refLexer) pos() pos { return pos{Line: l.line, Col: l.col} }

func (l *refLexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) advance() rune {
	r := l.src[l.off]
	l.off++
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *refLexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		r := l.peek()
		switch {
		case r == '#':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case unicode.IsSpace(r):
			l.advance()
		default:
			return
		}
	}
}

// next returns the next token or a positioned error.
func (l *refLexer) next() (token, error) {
	l.skipSpaceAndComments()
	start := l.pos()
	if l.off >= len(l.src) {
		return token{Kind: tokEOF, Pos: start}, nil
	}
	r := l.peek()
	switch {
	case r == '{':
		l.advance()
		return token{Kind: tokLBrace, Pos: start}, nil
	case r == '}':
		l.advance()
		return token{Kind: tokRBrace, Pos: start}, nil
	case r == '[':
		l.advance()
		return token{Kind: tokLBracket, Pos: start}, nil
	case r == ']':
		l.advance()
		return token{Kind: tokRBracket, Pos: start}, nil
	case r == '=':
		l.advance()
		return token{Kind: tokAssign, Pos: start}, nil
	case r == '+':
		l.advance()
		return token{Kind: tokPlus, Pos: start}, nil
	case r == '-':
		l.advance()
		return token{Kind: tokMinus, Pos: start}, nil
	case r == '*':
		l.advance()
		return token{Kind: tokStar, Pos: start}, nil
	case r == '?':
		l.advance()
		return token{Kind: tokQuestion, Pos: start}, nil
	case r == '.':
		l.advance()
		if l.peek() != '.' {
			return token{}, errorf(start, "unexpected '.', expected '..'")
		}
		l.advance()
		return token{Kind: tokDotDot, Pos: start}, nil
	case r == '"':
		return l.lexString(start)
	case unicode.IsDigit(r):
		return l.lexNumber(start)
	case unicode.IsLetter(r) || r == '_':
		return l.lexIdent(start)
	default:
		return token{}, errorf(start, "unexpected character %q", r)
	}
}

func (l *refLexer) lexString(start pos) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			return token{}, errorf(start, "unterminated string")
		}
		r := l.advance()
		if r == '"' {
			return token{Kind: tokString, Text: b.String(), Pos: start}, nil
		}
		if r == '\n' {
			return token{}, errorf(start, "newline in string")
		}
		b.WriteRune(r)
	}
}

func (l *refLexer) lexNumber(start pos) (token, error) {
	var b strings.Builder
	kind := tokInt
	for l.off < len(l.src) && unicode.IsDigit(l.peek()) {
		b.WriteRune(l.advance())
	}
	// A fraction part — but only when not followed by a second dot
	// (the range operator '..').
	if l.peek() == '.' && l.off+1 < len(l.src) && unicode.IsDigit(l.src[l.off+1]) {
		kind = tokFloat
		b.WriteRune(l.advance())
		for l.off < len(l.src) && unicode.IsDigit(l.peek()) {
			b.WriteRune(l.advance())
		}
	}
	return token{Kind: kind, Text: b.String(), Pos: start}, nil
}

func (l *refLexer) lexIdent(start pos) (token, error) {
	var b strings.Builder
	for l.off < len(l.src) {
		r := l.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			b.WriteRune(l.advance())
		} else {
			break
		}
	}
	return token{Kind: tokIdent, Text: b.String(), Pos: start}, nil
}

// refLexAll scans the whole source with the reference lexer.
func refLexAll(src string) ([]token, error) {
	l := newRefLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == tokEOF {
			return toks, nil
		}
	}
}

// checkLexMatchesReference fails t unless the byte-offset lexer gives
// the reference's token stream (kind, text, line:col) or its error
// string on src.
func checkLexMatchesReference(t *testing.T, src string) {
	t.Helper()
	got, gotErr := lexAll(src)
	want, wantErr := refLexAll(src)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("lexAll(%q) error = %v, reference %v", src, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("lexAll(%q) =\n%v\nreference\n%v", src, got, want)
	}
	// The parser pulls tokens lazily, but a lexical error anywhere
	// still wins over any parse error, as with a pre-lexed source.
	if wantErr != nil {
		if _, err := Parse(src); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("Parse(%q) error = %v, want the lexical error %v", src, err, wantErr)
		}
		if _, err := ParseProgram(src); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ParseProgram(%q) error = %v, want the lexical error %v", src, err, wantErr)
		}
	}
}

// TestLexMatchesReferenceOnPaperWorkloads runs the oracle over the ten
// paper workloads' source. They are not fuzz seeds: minimizing a
// mutation of a kilobyte seed takes the fuzzer longer than a short
// fuzzing run lasts.
func TestLexMatchesReferenceOnPaperWorkloads(t *testing.T) {
	for _, src := range paperSources(t) {
		checkLexMatchesReference(t, src)
	}
}

// FuzzLexMatchesReference checks the byte-offset lexer against the
// rune-based reference on any input.
func FuzzLexMatchesReference(f *testing.F) {
	for _, s := range []string{
		"",
		"#",
		"# comment at EOF",
		"a # trailing comment",
		"array größe[4] float32",
		"kernel ядро { parfor 変数 in 0..4 { } }",
		"kernel k { parfor i in 0..4 { stmt flops=1 { load a[2*i-1] } } }",
		"load a[١٢]",
		"cpu flops=1.٥",
		"x\t=\t1\r\ny = 2\r\n",
		"\v\f\u0085\u00a0 a",
		`"unterminated`,
		"\"newline\nin string\"",
		`"ok" "π ≠ 3"`,
		"\"bad \xff\xfe utf8\"",
		"\xe2\x82 a",
		"a . b",
		"0..16 1.5 2. 3..",
		"@",
		"workload @",
		"kernel { } \"open",
		"é",
		"\x00",
		"_a1 a_1 __",
	} {
		f.Add(s)
	}
	f.Fuzz(checkLexMatchesReference)
}
