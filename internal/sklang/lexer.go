package sklang

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"grophecy/internal/errdefs"
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

// Error is a positioned skeleton-language error. Every such error is
// a fault of the source text, so it matches errdefs.ErrInvalidInput.
type Error struct {
	Pos pos
	Msg string
}

// Error implements the error interface with a position prefix.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Unwrap classifies the error as errdefs.ErrInvalidInput.
func (e *Error) Unwrap() error { return errdefs.ErrInvalidInput }

func errorf(p pos, format string, args ...interface{}) *Error {
	return &Error{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// lexer scans skeleton source into tokens. '#' starts a comment to
// end of line; whitespace separates tokens. It walks the source in
// place, byte by byte for ASCII and decoding only non-ASCII runes,
// and slices token text out of the source. Columns count runes, and
// each invalid UTF-8 byte reads as one U+FFFD, as ranging over the
// string does.
type lexer struct {
	src  string
	off  int // byte offset into src
	line int
	col  int // rune column
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) pos() pos { return pos{Line: l.line, Col: l.col} }

// runeAt decodes the rune starting at byte offset off, or 0 past the
// end of the source.
func (l *lexer) runeAt(off int) rune {
	if off >= len(l.src) {
		return 0
	}
	if c := l.src[off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[off:])
	return r
}

func (l *lexer) peek() rune { return l.runeAt(l.off) }

func (l *lexer) advance() rune {
	if c := l.src[l.off]; c < utf8.RuneSelf {
		l.off++
		if c == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		return rune(c)
	}
	r, n := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += n
	l.col++
	return r
}

func (l *lexer) skipSpaceAndComments() {
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
func (l *lexer) next() (token, error) {
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

func (l *lexer) lexString(start pos) (token, error) {
	l.advance() // opening quote
	from := l.off
	for {
		if l.off >= len(l.src) {
			return token{}, errorf(start, "unterminated string")
		}
		r := l.advance()
		if r == '"' {
			text := l.src[from : l.off-1]
			if !utf8.ValidString(text) {
				// One U+FFFD per invalid byte, as a rune-wise copy gives.
				text = string([]rune(text))
			}
			return token{Kind: tokString, Text: text, Pos: start}, nil
		}
		if r == '\n' {
			return token{}, errorf(start, "newline in string")
		}
	}
}

func (l *lexer) lexNumber(start pos) (token, error) {
	from := l.off
	kind := tokInt
	for l.off < len(l.src) && unicode.IsDigit(l.peek()) {
		l.advance()
	}
	// A fraction part — but only when not followed by a second dot
	// (the range operator '..').
	if l.peek() == '.' && unicode.IsDigit(l.runeAt(l.off+1)) {
		kind = tokFloat
		l.advance()
		for l.off < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	return token{Kind: kind, Text: l.src[from:l.off], Pos: start}, nil
}

func (l *lexer) lexIdent(start pos) (token, error) {
	from := l.off
	for l.off < len(l.src) {
		r := l.peek()
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			break
		}
		l.advance()
	}
	return token{Kind: tokIdent, Text: l.src[from:l.off], Pos: start}, nil
}

// lexAll scans the whole source, for the parser's lookahead buffer.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	// Formatted skeletons run 4-5 source bytes per token, so this
	// capacity holds the shipped ones without regrowing.
	toks := make([]token, 0, len(src)/4+1)
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
