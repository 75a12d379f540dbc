package sklang

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
)

// runeLexer is the lexer as it was before it scanned in place: it
// copies the source to []rune and builds every token rune by rune.
// It is kept as the oracle the in-place lexer must match token for
// token and error for error.
type runeLexer struct {
	src  []rune
	off  int
	line int
	col  int
}

func newRuneLexer(src string) *runeLexer {
	return &runeLexer{src: []rune(src), line: 1, col: 1}
}

func (l *runeLexer) pos() pos { return pos{Line: l.line, Col: l.col} }

func (l *runeLexer) peek() rune {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *runeLexer) advance() rune {
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

func (l *runeLexer) skipSpaceAndComments() {
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
func (l *runeLexer) next() (token, error) {
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

func (l *runeLexer) lexString(start pos) (token, error) {
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

func (l *runeLexer) lexNumber(start pos) (token, error) {
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

func (l *runeLexer) lexIdent(start pos) (token, error) {
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

// runeLexAll is lexAll over the oracle lexer.
func runeLexAll(src string) ([]token, error) {
	l := newRuneLexer(src)
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

// lexCorpus is every source the equivalence test checks: the shipped
// skeletons, the parser's test data, every FuzzParse seed, and inputs
// aimed at the rune/byte distinction — non-ASCII identifiers, digits
// and whitespace, and invalid UTF-8 inside and outside literals.
func lexCorpus(t testing.TB) []string {
	var corpus []string
	for _, pattern := range []string{
		filepath.Join("..", "..", "skeletons", "*.sk"),
		filepath.Join("testdata", "*.sk"),
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no files match %s", pattern)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, string(data))
		}
	}
	corpus = append(corpus, fuzzParseSeeds...)
	return append(corpus,
		"array größe[4] float32\nkernel κ { parfor ι in 0..4 { stmt { load größe[ι] } } }",
		"workload \"Wärme 熱\" size \"1 × 1\"",
		"x\u00a0y\u2003z\u0085w",      // non-ASCII whitespace
		"n = ٣٤ m = 1.٥ k = ٣..4",     // non-ASCII digits
		"ab\xffcd",                    // invalid byte outside a literal
		"\"a\xffb\xfe\xfdc\"",         // one U+FFFD per invalid byte
		"\"\xe2\x82\" next",           // truncated sequence before the quote
		"\"\ufffd\" \"\xef\xbf\xbd\"", // a real U+FFFD, both spellings
		"\"€ ok\" \"\xc0\xaf\"",       // overlong encoding
		"\"tab\tand unicode ü\"\n\"line\nbreak\"",
		"1.2.3 4..5 6. .7 8.x",
		"\"unterminated ü",
		"# comment ü\xff\n{ } [ ] = + - * ? .. @ ü! \x00",
		"名前 = \"値\" # 注釈\n\tfor i in 0..８",
	)
}

// equalLex runs both lexers over src and reports the first mismatch
// in token kind, text, position or error.
func equalLex(src string) error {
	got, gerr := lexAll(src)
	want, werr := runeLexAll(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Errorf("error %v, oracle %v", gerr, werr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d tokens, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("token %d is %v %q at %v, oracle %v %q at %v", i,
				got[i].Kind, got[i].Text, got[i].Pos, want[i].Kind, want[i].Text, want[i].Pos)
		}
	}
	return nil
}

func TestLexMatchesRuneOracle(t *testing.T) {
	for i, src := range lexCorpus(t) {
		if err := equalLex(src); err != nil {
			t.Errorf("corpus entry %d (%.40q): %v", i, src, err)
		}
	}
}

func TestLexInvalidUTF8StringLiteral(t *testing.T) {
	toks, err := lexAll("\"a\xffb\xfe\xfd\"")
	if err != nil {
		t.Fatal(err)
	}
	if want := "a\ufffdb\ufffd\ufffd"; toks[0].Text != want {
		t.Fatalf("literal text %q, want %q", toks[0].Text, want)
	}
}

// FuzzLexEquivalence checks the in-place lexer against the rune-wise
// oracle on arbitrary input.
func FuzzLexEquivalence(f *testing.F) {
	for _, src := range lexCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := equalLex(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	})
}
