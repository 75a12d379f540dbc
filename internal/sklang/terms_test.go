package sklang

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"grophecy/internal/skeleton"
)

// oracleIndexExpr is the index-expression parser as it was while
// IndexExpr held a map: every term accumulates into
// map[string]int64 with +=, in source order. It is kept as the oracle
// the term-slab parser must match, value for value and error for
// error.
func (p *parser) oracleIndexExpr(scope []skeleton.Loop) (coeffs map[string]int64, c int64, irregular bool, err error) {
	if p.cur().Kind == tokQuestion {
		p.advance()
		return nil, 0, true, nil
	}
	coeffs = make(map[string]int64)
	sign := int64(1)
	if p.cur().Kind == tokMinus {
		p.advance()
		sign = -1
	}
	for {
		if err := p.oracleIndexTerm(coeffs, &c, sign, scope); err != nil {
			return nil, 0, false, err
		}
		switch p.cur().Kind {
		case tokPlus:
			p.advance()
			sign = 1
		case tokMinus:
			p.advance()
			sign = -1
		default:
			return coeffs, c, false, nil
		}
	}
}

func (p *parser) oracleIndexTerm(coeffs map[string]int64, c *int64, sign int64, scope []skeleton.Loop) error {
	t := p.cur()
	switch t.Kind {
	case tokInt:
		v, err := p.parseInt()
		if err != nil {
			return err
		}
		if p.cur().Kind == tokStar {
			p.advance()
			varTok, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			if !inScope(scope, varTok.Text) {
				return errorf(varTok.Pos, "unknown loop variable %q", varTok.Text)
			}
			coeffs[varTok.Text] += sign * v
			return nil
		}
		*c += sign * v
		return nil
	case tokIdent:
		if !inScope(scope, t.Text) {
			return errorf(t.Pos, "unknown loop variable %q", t.Text)
		}
		p.advance()
		coeffs[t.Text] += sign
		return nil
	default:
		return errorf(t.Pos, "expected an index term, found %v", t.Kind)
	}
}

// oracleTerms returns the oracle map's nonzero entries sorted by
// variable: what IndexExpr.Terms must hold.
func oracleTerms(coeffs map[string]int64) []skeleton.Term {
	var ts []skeleton.Term
	for v, c := range coeffs {
		if c != 0 {
			ts = append(ts, skeleton.Term{Var: v, Coeff: c})
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Var < ts[j].Var })
	return ts
}

// indexVars are the loop variables in scope for generated indices; z
// is deliberately undeclared.
var indexVars = []string{"i", "j", "k", "z"}

// bigMagnitudes are the literals near the int64 edges that make
// accumulation wrap.
var bigMagnitudes = []int64{math.MaxInt64, math.MaxInt64 - 1, 1 << 62, 1<<62 + 1, 3037000499}

// genIndex renders fuzz bytes as index text: '?' alone, or up to eight
// signed terms — a variable, a constant, a scaled variable, or the
// previous variable again — two bytes per term.
func genIndex(data []byte) string {
	if len(data) > 0 && data[0] == '?' {
		return "?"
	}
	var b strings.Builder
	prev := "i"
	for n := 0; len(data) >= 2 && n < 8; n++ {
		op, arg := data[0], data[1]
		data = data[2:]
		switch {
		case op&1 == 1:
			b.WriteString(" - ")
		case n > 0:
			b.WriteString(" + ")
		}
		mag := int64(arg & 0x7f)
		if arg&0x80 != 0 {
			mag = bigMagnitudes[int(arg&0x7f)%len(bigMagnitudes)]
		}
		v := indexVars[int(arg)%len(indexVars)]
		if v == "z" && arg&0x40 == 0 {
			v = "j" // keep undeclared variables rare
		}
		switch (op >> 1) % 4 {
		case 0:
			b.WriteString(v)
		case 1:
			fmt.Fprintf(&b, "%d", mag)
		case 2:
			fmt.Fprintf(&b, "%d*%s", mag, v)
		case 3:
			v = prev
			b.WriteString(v)
		}
		prev = v
	}
	return b.String()
}

// checkIndexAgainstOracle parses text with the slab parser and the
// oracle and fails unless both accept it with equal terms, constant,
// irregularity and token consumption, or both reject it with the same
// error.
func checkIndexAgainstOracle(t *testing.T, text string) {
	t.Helper()
	toks, err := lexAll(text)
	if err != nil {
		return // not an index at all; the lexer is fuzzed elsewhere
	}
	scope := []skeleton.Loop{skeleton.ParLoop("i", 4), skeleton.ParLoop("j", 4), skeleton.SeqLoop("k", 4)}
	p, o := newParser(toks), newParser(toks)
	got, gotErr := p.parseIndexExpr(scope)
	coeffs, c, irregular, wantErr := o.oracleIndexExpr(scope)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: error %v, oracle %v", text, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	want := oracleTerms(coeffs)
	if !slices.Equal(got.Terms, want) || got.Const != c || got.Irregular != irregular || p.off != o.off {
		t.Fatalf("%q: got terms %v const %d irregular %v (consumed %d), oracle %v %d %v (consumed %d)",
			text, got.Terms, got.Const, got.Irregular, p.off, want, c, irregular, o.off)
	}
	if got.Terms != nil && len(got.Terms) == 0 {
		t.Fatalf("%q: empty terms are not nil", text)
	}
	if cap(got.Terms) != len(got.Terms) {
		t.Fatalf("%q: terms have spare capacity %d", text, cap(got.Terms)-len(got.Terms))
	}
}

// FuzzIndexExprTerms parses generated index texts — signs, repeated
// variables, cancelling terms, constants only, '?', literals that
// wrap — and checks the parsed Terms and Const against the map
// oracle's sorted nonzero entries.
func FuzzIndexExprTerms(f *testing.F) {
	for _, seed := range []string{
		"\x00\x00",                         // i
		"\x02\x05",                         // 5
		"\x01\x01\x06\x01",                 // - j + j
		"\x00\x00\x01\x00",                 // i - i
		"\x04\x03\x04\x82\x06\x00\x07\x00", // 3*j + 4611686018427387904*k + k - k
		"\x02\x80\x02\x80",                 // 9223372036854775807 + 9223372036854775807
		"\x04\x80\x04\x80",                 // 9223372036854775807*i + 9223372036854775807*i
		"\x00\x43",                         // z, undeclared
		"?",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexAgainstOracle(t, genIndex(data))
	})
}

// TestIndexExprTermsHandWritten pins the oracle comparison on index
// texts written out rather than generated.
func TestIndexExprTermsHandWritten(t *testing.T) {
	for _, text := range []string{
		"i", "-i", "i - i", "i - i + i", "2*j + 3*i - 1", "k + j + i + k",
		"0*i", "7", "-7 + 7", "?", "i +", "* i", "z", "1 - 9223372036854775807*j - 9223372036854775807*j",
	} {
		checkIndexAgainstOracle(t, text)
	}
}

// TestParseOutputDoesNotAlias: the parser carves every expression's
// terms, access's indices, array's dims, statement's accesses and
// kernel's loops and statements out of shared slabs. Appending to any one of them must reallocate rather
// than write into a neighbour, so after an append to every owner each
// kernel's canonical key and every rendered statement are unchanged.
func TestParseOutputDoesNotAlias(t *testing.T) {
	for _, name := range []string{"cfd", "srad", "hotspot", "stassuij"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "skeletons", name+".sk"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := Parse(string(data))
		if err != nil {
			t.Fatal(err)
		}
		snapshot := func() []string {
			var out []string
			for _, k := range w.Seq.Kernels {
				out = append(out, string(k.AppendCanonical(nil)))
				for _, s := range k.Stmts {
					out = append(out, fmt.Sprintf("%+v", s))
					for _, ac := range s.Accesses {
						out = append(out, fmt.Sprint(ac.Array.Dims))
					}
				}
			}
			return out
		}
		before := snapshot()
		junkTerm := skeleton.Term{Var: "junk", Coeff: 99}
		junkIdx := skeleton.IdxConst(-99)
		for _, k := range w.Seq.Kernels {
			_ = append(k.Loops, skeleton.SeqLoop("junk", 99))
			_ = append(k.Stmts, skeleton.Statement{Flops: 99})
			for si := range k.Stmts {
				s := &k.Stmts[si]
				_ = append(s.Accesses, skeleton.Access{Array: &skeleton.Array{Name: "junk"}})
				for ai := range s.Accesses {
					ac := &s.Accesses[ai]
					_ = append(ac.Array.Dims, -99)
					_ = append(ac.Index, junkIdx)
					for ei := range ac.Index {
						_ = append(ac.Index[ei].Terms, junkTerm)
					}
				}
			}
		}
		if after := snapshot(); !slices.Equal(before, after) {
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("%s: an append wrote into a neighbour:\nbefore %s\nafter  %s", name, before[i], after[i])
				}
			}
		}
	}
}
