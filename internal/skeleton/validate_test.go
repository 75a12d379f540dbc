package skeleton_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/errdefs"
	"grophecy/internal/skeleton"
	"grophecy/internal/sklang"
)

// TestKernelValidateErrorTexts pins the index-scope error texts. In
// the two-offender case the sorted-first offender must win, on every
// validation.
func TestKernelValidateErrorTexts(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 64)
	kernel := func(idx skeleton.IndexExpr, depth int, loops ...skeleton.Loop) *skeleton.Kernel {
		return &skeleton.Kernel{
			Name:  "k",
			Loops: loops,
			Stmts: []skeleton.Statement{{Accesses: []skeleton.Access{skeleton.LoadOf(a, idx)}, Flops: 1, Depth: depth}},
		}
	}
	cases := []struct {
		name string
		k    *skeleton.Kernel
		want string
	}{
		{
			"undeclared variable",
			kernel(skeleton.Idx("zz"), 0, skeleton.ParLoop("i", 8)),
			`skeleton: kernel "k" access load a[zz] references undeclared loop variable "zz"`,
		},
		{
			"variable below its depth",
			kernel(skeleton.IdxPlus("s", 1), 1, skeleton.ParLoop("i", 8), skeleton.SeqLoop("s", 4)),
			`skeleton: kernel "k" access load a[s+1] references loop variable "s" below its depth`,
		},
		{
			"two offenders, sorted-first reported",
			kernel(skeleton.IdxSum("zz", 2, "s", 1, 0), 1, skeleton.ParLoop("i", 8), skeleton.SeqLoop("s", 4)),
			`skeleton: kernel "k" access load a[s+2*zz] references loop variable "s" below its depth`,
		},
		{
			"reused loop variable",
			kernel(skeleton.Idx("i"), 0, skeleton.ParLoop("i", 8), skeleton.SeqLoop("i", 4)),
			`skeleton: kernel "k" reuses loop variable "i"`,
		},
	}
	for _, c := range cases {
		for i := 0; i < 20; i++ {
			err := c.k.Validate()
			if err == nil || err.Error() != c.want {
				t.Fatalf("%s: Validate() = %v, want %s", c.name, err, c.want)
			}
		}
	}
}

// shippedKernels returns every kernel of the shipped skeleton files,
// program phases included, and of the paper's built-in workloads.
func shippedKernels(t *testing.T) []*skeleton.Kernel {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "skeletons", "*.sk"))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []*skeleton.Sequence
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sklang.Parse(string(data))
		if errors.Is(err, sklang.ErrNotWorkload) {
			pw, err := sklang.ParseProgram(string(data))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			for _, ph := range pw.Prog.Phases {
				seqs = append(seqs, ph.Seq)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		seqs = append(seqs, w.Seq)
	}
	ws, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		seqs = append(seqs, w.Seq)
	}
	var ks []*skeleton.Kernel
	for _, s := range seqs {
		ks = append(ks, s.Kernels...)
	}
	return ks
}

func TestKernelValidateAllocBudget(t *testing.T) {
	ks := shippedKernels(t)
	if len(ks) < 10 {
		t.Fatalf("found only %d shipped kernels", len(ks))
	}
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = k.Validate() }); got != 0 {
			t.Errorf("kernel %s: Validate allocates %.0f per call, budget is 0", k.Name, got)
		}
	}
}

// Canonical keys are built on every transform-memo lookup: into a
// presized buffer they allocate nothing, per index and per kernel.
func TestAppendCanonicalAllocBudget(t *testing.T) {
	buf := make([]byte, 0, 4096)
	for _, k := range shippedKernels(t) {
		for _, s := range k.Stmts {
			for _, ac := range s.Accesses {
				for _, e := range ac.Index {
					if got := testing.AllocsPerRun(100, func() { buf = e.AppendCanonical(buf[:0]) }); got != 0 {
						t.Errorf("kernel %s: IndexExpr.AppendCanonical allocates %.0f per call, budget is 0", k.Name, got)
					}
				}
			}
		}
		if got := testing.AllocsPerRun(100, func() { buf = k.AppendCanonical(buf[:0]) }); got != 0 {
			t.Errorf("kernel %s: Kernel.AppendCanonical allocates %.0f per call, budget is 0", k.Name, got)
		}
	}
}

func TestAppendVars(t *testing.T) {
	var e skeleton.IndexExpr
	for _, tm := range []skeleton.Term{{"k", 2}, {"a", 1}, {"z", 0}, {"j", -3}, {"b", 4}} {
		e.Terms = skeleton.AddTerm(e.Terms, tm.Var, tm.Coeff)
	}
	want := []string{"x", "a", "b", "j", "k"}
	if got := e.AppendVars([]string{"x"}); !slices.Equal(got, want) {
		t.Fatalf("AppendVars = %q, want %q", got, want)
	}
	if got := e.Vars(); !slices.Equal(got, want[1:]) {
		t.Fatalf("Vars = %q, want %q", got, want[1:])
	}
	var buf [4]string
	if got := testing.AllocsPerRun(100, func() { e.AppendVars(buf[:0]) }); got != 0 {
		t.Errorf("AppendVars into a stack buffer allocates %.0f per call, budget is 0", got)
	}
}

// overflowSkeletons returns the skeleton sources under testdata whose
// int64 arithmetic used to wrap into an unsound transfer plan.
func overflowSkeletons(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "overflow_*.sk"))
	if err != nil || len(files) != 2 {
		t.Fatalf("overflow skeletons: %v %v", files, err)
	}
	srcs := make(map[string]string)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(data)
	}
	return srcs
}

func TestParseRejectsInt64Overflow(t *testing.T) {
	for name, src := range overflowSkeletons(t) {
		if _, err := sklang.Parse(src); err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: Parse error = %v, want an overflow rejection", name, err)
		}
	}
}

func TestArrayValidateRejectsFootprintOverflow(t *testing.T) {
	cases := []struct {
		dims []int64
		elem skeleton.ElemType
		ok   bool
	}{
		{[]int64{1 << 32, 1 << 32}, skeleton.Float32, false},
		{[]int64{1 << 61}, skeleton.Float32, false}, // exactly 2^63 bytes
		{[]int64{1<<61 - 1}, skeleton.Float32, true},
		{[]int64{1 << 30, 1 << 30, 1 << 2}, skeleton.Complex128, false},
		{[]int64{math.MaxInt64}, skeleton.Float32, false},
		{[]int64{1 << 20, 1 << 20}, skeleton.Float64, true},
	}
	for _, c := range cases {
		a := &skeleton.Array{Name: "a", Dims: c.dims, Elem: c.elem}
		err := a.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%v %v: Validate() = %v, want ok=%v", c.dims, c.elem, err, c.ok)
		}
		if err != nil && !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("%v: %v is not invalid input", c.dims, err)
		}
	}
}

func TestKernelValidateRejectsBoundOverflow(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 16)
	nest := []skeleton.Loop{skeleton.ParLoop("i", 2), skeleton.SeqLoop("j", 2)}
	kernel := func(idx skeleton.IndexExpr, loops []skeleton.Loop) *skeleton.Kernel {
		return &skeleton.Kernel{
			Name:  "k",
			Loops: loops,
			Stmts: []skeleton.Statement{{Accesses: []skeleton.Access{skeleton.LoadOf(a, idx)}, Flops: 1}},
		}
	}
	const max = math.MaxInt64
	cases := []struct {
		name  string
		idx   skeleton.IndexExpr
		loops []skeleton.Loop
		ok    bool
	}{
		{"wrapping difference", skeleton.IdxSum("i", max, "j", -max, 5), nest, false},
		{"largest fitting coefficient", skeleton.IdxSum("i", max, "j", -max, 0), nest, true},
		{"constant pushes past max", skeleton.IdxScaled("i", max, 1), nest, false},
		{"most negative coefficient", skeleton.IdxScaled("i", math.MinInt64, 0), nest, false},
		{"large lower bound", skeleton.IdxScaled("i", 4, 0),
			[]skeleton.Loop{{Var: "i", Lower: 1 << 61, Upper: 1<<61 + 2, Step: 1, Parallel: true}}, false},
		{"empty loop never executes", skeleton.IdxScaled("i", max, 5),
			[]skeleton.Loop{skeleton.ParLoop("i", 0)}, true},
		{"irregular", skeleton.IdxIrregular(), nest, true},
	}
	for _, c := range cases {
		err := kernel(c.idx, c.loops).Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		if err != nil && !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("%s: %v is not invalid input", c.name, err)
		}
	}
}

// Trips cannot overflow for a loop that validates, and a loop whose
// range itself overflows does not validate.
func TestLoopTripsAndRangeOverflow(t *testing.T) {
	l := skeleton.Loop{Var: "i", Lower: 0, Upper: math.MaxInt64, Step: 2}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.Trips(), int64(1<<62); got != want {
		t.Errorf("Trips() = %d, want %d", got, want)
	}
	wide := skeleton.Loop{Var: "i", Lower: -2, Upper: math.MaxInt64, Step: 1}
	if err := wide.Validate(); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Errorf("Validate() = %v, want an invalid-input overflow rejection", err)
	}
}

// Terms out of normal form — unsorted, repeated, zero — would make
// Coeff, AppendVars and the canonical key disagree with the index's
// value, so validation rejects them.
func TestKernelValidateRejectsAbnormalTerms(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 64, 64)
	for name, terms := range map[string][]skeleton.Term{
		"unsorted": {{Var: "j", Coeff: 1}, {Var: "i", Coeff: 1}},
		"repeated": {{Var: "i", Coeff: 1}, {Var: "i", Coeff: 1}},
		"zero":     {{Var: "i", Coeff: 0}},
	} {
		k := &skeleton.Kernel{
			Name:  "k",
			Loops: []skeleton.Loop{skeleton.ParLoop("i", 8), skeleton.ParLoop("j", 8)},
			Stmts: []skeleton.Statement{{Accesses: []skeleton.Access{
				skeleton.LoadOf(a, skeleton.IndexExpr{Terms: terms}, skeleton.Idx("j")),
			}, Flops: 1}},
		}
		if err := k.Validate(); !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("%s: Validate() = %v, want an invalid-input rejection", name, err)
		}
	}
}
