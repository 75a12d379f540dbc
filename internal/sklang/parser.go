package sklang

import (
	"fmt"
	"math"
	"strconv"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/skeleton"
)

// parser is a recursive-descent parser over a pre-lexed token stream.
// It builds the core.Workload directly, using a symbol table of
// declared arrays and kernels; semantic errors (unknown array, wrong
// dimensionality, duplicate names) are reported with positions.
type parser struct {
	toks []token
	off  int

	workloadName string
	dataSize     string
	arrays       map[string]*skeleton.Array
	arrayOrder   []string
	kernels      map[string]*skeleton.Kernel
	kernelOrder  []string
	seq          *skeleton.Sequence
	phases       []parsedPhase
	cpu          *cpumodel.Workload

	// The per-parse slabs the output is carved from: the free tails of
	// index terms, access indices, array dims, statement accesses,
	// kernel loops and kernel statements, and the arrays and kernels
	// declared so far.
	termFree  []skeleton.Term
	idxFree   []skeleton.IndexExpr
	dimFree   []int64
	accFree   []skeleton.Access
	loopFree  []skeleton.Loop
	stmtFree  []skeleton.Statement
	arraySlab []skeleton.Array
	kernSlab  []skeleton.Kernel
}

// newParser returns a parser over toks with its output slabs presized
// from one pass over the token stream: every '[' opens an array
// dimension or an access index, every identifier between brackets is
// at most one index term, and every keyword outside them — 'load' or
// 'store', 'parfor' or 'for', 'stmt', 'array', 'kernel' — starts at
// most one access, loop, statement, array or kernel. A parse appends
// each owner's elements — one expression's terms, one access's
// indices, one array's dims, one statement's accesses, one kernel's
// loops and statements — to a slab's free tail and hands the owner a
// capacity-capped subslice (carve), so an append by any consumer
// reallocates instead of writing into a neighbour. A short count only
// costs a regrowth: carved slices and handed-out pointers keep the old
// backing array.
func newParser(toks []token) *parser {
	var brackets, terms, accesses, loops, stmts, arrays, kernels, depth int
	for _, t := range toks {
		switch t.Kind {
		case tokLBracket:
			brackets++
			depth++
		case tokRBracket:
			if depth > 0 {
				depth--
			}
		case tokIdent:
			if depth > 0 {
				terms++
				continue
			}
			switch t.Text {
			case "load", "store":
				accesses++
			case "parfor", "for":
				loops++
			case "stmt":
				stmts++
			case "array":
				arrays++
			case "kernel":
				kernels++
			}
		}
	}
	return &parser{
		toks:      toks,
		termFree:  make([]skeleton.Term, 0, terms),
		idxFree:   make([]skeleton.IndexExpr, 0, brackets),
		dimFree:   make([]int64, 0, brackets),
		accFree:   make([]skeleton.Access, 0, accesses),
		loopFree:  make([]skeleton.Loop, 0, loops),
		stmtFree:  make([]skeleton.Statement, 0, stmts),
		arraySlab: make([]skeleton.Array, 0, arrays),
		kernSlab:  make([]skeleton.Kernel, 0, kernels),
	}
}

// carve splits s, an owner's elements appended to a slab's free tail,
// into the owner's part — capped at its length, nil when empty — and
// the free tail that remains.
func carve[T any](s []T) (owned, free []T) {
	if len(s) == 0 {
		return nil, s
	}
	return s[:len(s):len(s)], s[len(s):]
}

func (p *parser) cur() token { return p.toks[p.off] }

func (p *parser) advance() token {
	t := p.toks[p.off]
	if t.Kind != tokEOF {
		p.off++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.cur()
	if t.Kind != kind {
		return token{}, errorf(t.Pos, "expected %v, found %v %q", kind, t.Kind, t.Text)
	}
	return p.advance(), nil
}

func (p *parser) expectKeyword(word string) (token, error) {
	t := p.cur()
	if t.Kind != tokIdent || t.Text != word {
		return token{}, errorf(t.Pos, "expected %q, found %q", word, t.Text)
	}
	return p.advance(), nil
}

func (p *parser) atKeyword(word string) bool {
	t := p.cur()
	return t.Kind == tokIdent && t.Text == word
}

func (p *parser) parseInt() (int64, error) {
	t, err := p.expect(tokInt)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, errorf(t.Pos, "invalid integer %q", t.Text)
	}
	return v, nil
}

// parseFile parses the whole token stream into a single-sequence
// workload; files declaring phases get ErrNotWorkload.
func (p *parser) parseFile() (core.Workload, error) {
	if err := p.parseDecls(); err != nil {
		return core.Workload{}, err
	}
	if len(p.phases) > 0 {
		return core.Workload{}, ErrNotWorkload
	}
	return p.finish()
}

// workload "Name" size "label"
func (p *parser) parseWorkloadHeader() error {
	at := p.cur().Pos
	if _, err := p.expectKeyword("workload"); err != nil {
		return err
	}
	if p.workloadName != "" {
		return errorf(at, "duplicate workload declaration")
	}
	name, err := p.expect(tokString)
	if err != nil {
		return err
	}
	p.workloadName = name.Text
	if _, err := p.expectKeyword("size"); err != nil {
		return err
	}
	size, err := p.expect(tokString)
	if err != nil {
		return err
	}
	p.dataSize = size.Text
	return nil
}

// [temporary] [sparse] array name[d0][d1]... type
func (p *parser) parseArray() error {
	var temporary, sparse bool
	for {
		switch {
		case p.atKeyword("temporary"):
			p.advance()
			temporary = true
		case p.atKeyword("sparse"):
			p.advance()
			sparse = true
		default:
			goto modifiersDone
		}
	}
modifiersDone:
	if _, err := p.expectKeyword("array"); err != nil {
		return err
	}
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, dup := p.arrays[nameTok.Text]; dup {
		return errorf(nameTok.Pos, "array %q already declared", nameTok.Text)
	}
	dims := p.dimFree
	for p.cur().Kind == tokLBracket {
		p.advance()
		d, err := p.parseInt()
		if err != nil {
			return err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return err
		}
		dims = append(dims, d)
	}
	dims, p.dimFree = carve(dims)
	if len(dims) == 0 {
		return errorf(p.cur().Pos, "array %q needs at least one dimension", nameTok.Text)
	}
	elemTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	elem, ok := elemTypes[elemTok.Text]
	if !ok {
		return errorf(elemTok.Pos, "unknown element type %q", elemTok.Text)
	}
	p.arraySlab = append(p.arraySlab, skeleton.Array{
		Name: nameTok.Text, Dims: dims, Elem: elem,
		Sparse: sparse, Temporary: temporary,
	})
	arr := &p.arraySlab[len(p.arraySlab)-1]
	if err := arr.Validate(); err != nil {
		return errorf(nameTok.Pos, "%v", err)
	}
	p.arrays[arr.Name] = arr
	p.arrayOrder = append(p.arrayOrder, arr.Name)
	return nil
}

var elemTypes = map[string]skeleton.ElemType{
	"float32":    skeleton.Float32,
	"float64":    skeleton.Float64,
	"int32":      skeleton.Int32,
	"int64":      skeleton.Int64,
	"complex64":  skeleton.Complex64,
	"complex128": skeleton.Complex128,
}

// kernel name { loop }
func (p *parser) parseKernel() error {
	if _, err := p.expectKeyword("kernel"); err != nil {
		return err
	}
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if _, dup := p.kernels[nameTok.Text]; dup {
		return errorf(nameTok.Pos, "kernel %q already declared", nameTok.Text)
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	p.kernSlab = append(p.kernSlab, skeleton.Kernel{Name: nameTok.Text, Loops: p.loopFree, Stmts: p.stmtFree})
	k := &p.kernSlab[len(p.kernSlab)-1]
	if err := p.parseLoopBody(k, 0); err != nil {
		return err
	}
	k.Loops, p.loopFree = carve(k.Loops)
	k.Stmts, p.stmtFree = carve(k.Stmts)
	if _, err := p.expect(tokRBrace); err != nil {
		return err
	}
	if err := k.Validate(); err != nil {
		return errorf(nameTok.Pos, "%v", err)
	}
	p.kernels[k.Name] = k
	p.kernelOrder = append(p.kernelOrder, k.Name)
	return nil
}

// parseLoopBody parses the body of a loop (or kernel top level):
// statements and at most one nested loop, at the given nesting depth.
func (p *parser) parseLoopBody(k *skeleton.Kernel, depth int) error {
	sawLoop := false
	for {
		switch {
		case p.atKeyword("parfor") || p.atKeyword("for"):
			if sawLoop {
				return errorf(p.cur().Pos,
					"a loop body may contain at most one nested loop (single loop nest per kernel)")
			}
			sawLoop = true
			if err := p.parseLoop(k, depth); err != nil {
				return err
			}
		case p.atKeyword("stmt"):
			if depth == 0 {
				return errorf(p.cur().Pos, "statements must appear inside a loop")
			}
			if err := p.parseStmt(k, depth); err != nil {
				return err
			}
		case p.cur().Kind == tokRBrace:
			return nil
		default:
			t := p.cur()
			return errorf(t.Pos, "expected 'parfor', 'for', 'stmt', or '}', found %q", t.Text)
		}
	}
}

// (parfor|for) v in lo..hi [step s] { body }
func (p *parser) parseLoop(k *skeleton.Kernel, depth int) error {
	parallel := p.cur().Text == "parfor"
	loopTok := p.advance()
	varTok, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if inScope(k.Loops, varTok.Text) {
		return errorf(varTok.Pos, "loop variable %q already in scope", varTok.Text)
	}
	if _, err := p.expectKeyword("in"); err != nil {
		return err
	}
	lo, err := p.parseInt()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokDotDot); err != nil {
		return err
	}
	hi, err := p.parseInt()
	if err != nil {
		return err
	}
	step := int64(1)
	if p.atKeyword("step") {
		p.advance()
		step, err = p.parseInt()
		if err != nil {
			return err
		}
	}
	loop := skeleton.Loop{Var: varTok.Text, Lower: lo, Upper: hi, Step: step, Parallel: parallel}
	if err := loop.Validate(); err != nil {
		return errorf(loopTok.Pos, "%v", err)
	}
	k.Loops = append(k.Loops, loop)

	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	if err := p.parseLoopBody(k, depth+1); err != nil {
		return err
	}
	_, err = p.expect(tokRBrace)
	return err
}

// stmt [flops=N] [intops=N] [transc=N] { accesses }
func (p *parser) parseStmt(k *skeleton.Kernel, depth int) error {
	stmtTok := p.advance() // 'stmt'
	st := skeleton.Statement{Depth: depth}
	for p.cur().Kind == tokIdent && p.toks[p.off+1].Kind == tokAssign {
		keyTok := p.advance()
		p.advance() // '='
		v, err := p.parseInt()
		if err != nil {
			return err
		}
		switch keyTok.Text {
		case "flops":
			st.Flops = int(v)
		case "intops":
			st.IntOps = int(v)
		case "transc":
			st.Transcendentals = int(v)
		default:
			return errorf(keyTok.Pos, "unknown statement attribute %q", keyTok.Text)
		}
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	accs := p.accFree
	for p.cur().Kind != tokRBrace {
		ac, err := p.parseAccess(k.Loops)
		if err != nil {
			return err
		}
		accs = append(accs, ac)
	}
	p.advance() // '}'
	st.Accesses, p.accFree = carve(accs)
	if len(st.Accesses) == 0 && st.Flops == 0 && st.IntOps == 0 && st.Transcendentals == 0 {
		return errorf(stmtTok.Pos, "empty statement")
	}
	k.Stmts = append(k.Stmts, st)
	return nil
}

// (load|store) array[idx][idx]...
func (p *parser) parseAccess(scope []skeleton.Loop) (skeleton.Access, error) {
	t := p.cur()
	if !p.atKeyword("load") && !p.atKeyword("store") {
		return skeleton.Access{}, errorf(t.Pos, "expected 'load' or 'store', found %q", t.Text)
	}
	kind := skeleton.Load
	if t.Text == "store" {
		kind = skeleton.Store
	}
	p.advance()
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return skeleton.Access{}, err
	}
	arr, ok := p.arrays[nameTok.Text]
	if !ok {
		return skeleton.Access{}, errorf(nameTok.Pos, "undeclared array %q", nameTok.Text)
	}
	idx := p.idxFree
	for p.cur().Kind == tokLBracket {
		p.advance()
		e, err := p.parseIndexExpr(scope)
		if err != nil {
			return skeleton.Access{}, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return skeleton.Access{}, err
		}
		idx = append(idx, e)
	}
	idx, p.idxFree = carve(idx)
	if len(idx) != len(arr.Dims) {
		return skeleton.Access{}, errorf(nameTok.Pos,
			"array %q has %d dimensions, access has %d indices", arr.Name, len(arr.Dims), len(idx))
	}
	return skeleton.Access{Array: arr, Kind: kind, Index: idx}, nil
}

// index := '?' | term (('+'|'-') term)*
// term  := INT ['*' IDENT] | IDENT
func (p *parser) parseIndexExpr(scope []skeleton.Loop) (skeleton.IndexExpr, error) {
	if p.cur().Kind == tokQuestion {
		p.advance()
		return skeleton.IdxIrregular(), nil
	}
	expr := skeleton.IndexExpr{Terms: p.termFree}
	sign := int64(1)
	if p.cur().Kind == tokMinus {
		p.advance()
		sign = -1
	}
	for {
		if err := p.parseIndexTerm(&expr, sign, scope); err != nil {
			return skeleton.IndexExpr{}, err
		}
		switch p.cur().Kind {
		case tokPlus:
			p.advance()
			sign = 1
		case tokMinus:
			p.advance()
			sign = -1
		default:
			expr.Terms, p.termFree = carve(expr.Terms)
			return expr, nil
		}
	}
}

func (p *parser) parseIndexTerm(expr *skeleton.IndexExpr, sign int64, scope []skeleton.Loop) error {
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
			expr.Terms = skeleton.AddTerm(expr.Terms, varTok.Text, sign*v)
			return nil
		}
		expr.Const += sign * v
		return nil
	case tokIdent:
		if !inScope(scope, t.Text) {
			return errorf(t.Pos, "unknown loop variable %q", t.Text)
		}
		p.advance()
		expr.Terms = skeleton.AddTerm(expr.Terms, t.Text, sign)
		return nil
	default:
		return errorf(t.Pos, "expected an index term, found %v", t.Kind)
	}
}

// inScope reports whether one of the kernel's loops parsed so far
// declares v.
func inScope(scope []skeleton.Loop, v string) bool {
	for _, l := range scope {
		if l.Var == v {
			return true
		}
	}
	return false
}

// sequence [iterations=N] { kernelName ... }
func (p *parser) parseSequence() error {
	at := p.cur().Pos
	p.advance() // 'sequence'
	if p.seq != nil {
		return errorf(at, "duplicate sequence declaration")
	}
	iterations := 1
	if p.atKeyword("iterations") {
		p.advance()
		if _, err := p.expect(tokAssign); err != nil {
			return err
		}
		v, err := p.parseInt()
		if err != nil {
			return err
		}
		iterations = int(v)
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	// A valid sequence names each declared kernel at most once.
	kernels := make([]*skeleton.Kernel, 0, len(p.kernels))
	for p.cur().Kind != tokRBrace {
		nameTok, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		k, ok := p.kernels[nameTok.Text]
		if !ok {
			return errorf(nameTok.Pos, "undeclared kernel %q", nameTok.Text)
		}
		kernels = append(kernels, k)
	}
	p.advance() // '}'
	p.seq = &skeleton.Sequence{Kernels: kernels, Iterations: iterations}
	return nil
}

// cpu key=value ...
func (p *parser) parseCPU() error {
	at := p.cur().Pos
	p.advance() // 'cpu'
	if p.cpu != nil {
		return errorf(at, "duplicate cpu declaration")
	}
	w := cpumodel.Workload{}
	for p.cur().Kind == tokIdent && p.toks[p.off+1].Kind == tokAssign {
		keyTok := p.advance()
		p.advance() // '='
		switch keyTok.Text {
		case "elements":
			v, err := p.parseInt()
			if err != nil {
				return err
			}
			w.Elements = v
		case "flops":
			v, err := p.parseNumber()
			if err != nil {
				return err
			}
			w.FlopsPerElem = v
		case "bytes":
			v, err := p.parseNumber()
			if err != nil {
				return err
			}
			w.BytesPerElem = v
		case "transc":
			v, err := p.parseNumber()
			if err != nil {
				return err
			}
			w.TranscendentalsPerElem = v
		case "irregular":
			v, err := p.parseNumber()
			if err != nil {
				return err
			}
			w.IrregularFraction = v
		case "regions":
			v, err := p.parseInt()
			if err != nil {
				return err
			}
			w.Regions = int(v)
		case "vectorizable":
			boolTok, err := p.expect(tokIdent)
			if err != nil {
				return err
			}
			switch boolTok.Text {
			case "true":
				w.Vectorizable = true
			case "false":
				w.Vectorizable = false
			default:
				return errorf(boolTok.Pos, "vectorizable wants true or false, found %q", boolTok.Text)
			}
		default:
			return errorf(keyTok.Pos, "unknown cpu attribute %q", keyTok.Text)
		}
	}
	p.cpu = &w
	return nil
}

// parseNumber accepts an int or float literal as float64.
func (p *parser) parseNumber() (float64, error) {
	t := p.cur()
	if t.Kind != tokInt && t.Kind != tokFloat {
		return 0, errorf(t.Pos, "expected a number, found %v", t.Kind)
	}
	p.advance()
	v, err := strconv.ParseFloat(t.Text, 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, errorf(t.Pos, "invalid number %q", t.Text)
	}
	return v, nil
}

// finish assembles and validates the workload.
func (p *parser) finish() (core.Workload, error) {
	end := p.cur().Pos
	if p.workloadName == "" {
		return core.Workload{}, errorf(end, "missing workload declaration")
	}
	if p.seq == nil {
		return core.Workload{}, errorf(end, "missing sequence declaration")
	}
	if p.cpu == nil {
		return core.Workload{}, errorf(end, "missing cpu declaration")
	}
	p.seq.Name = p.workloadName
	p.cpu.Name = p.workloadName + "-cpu"
	w := core.Workload{
		Name:     p.workloadName,
		DataSize: p.dataSize,
		Seq:      p.seq,
		CPU:      *p.cpu,
	}
	if err := w.Validate(); err != nil {
		return core.Workload{}, fmt.Errorf("sklang: %w", err)
	}
	return w, nil
}
