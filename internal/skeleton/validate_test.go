package skeleton_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/skeleton"
	"grophecy/internal/sklang"
)

// TestKernelValidateErrorTexts pins the index-scope error texts. The
// two-offender case is validated repeatedly: the variables sit in a
// map, and the sorted-first offender must win on every iteration
// order.
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
	e := skeleton.IndexExpr{Coeffs: map[string]int64{"k": 2, "a": 1, "z": 0, "j": -3, "b": 4}}
	want := []string{"x", "a", "b", "j", "k"}
	for i := 0; i < 20; i++ { // map order varies between runs
		if got := e.AppendVars([]string{"x"}); !slices.Equal(got, want) {
			t.Fatalf("AppendVars = %q, want %q", got, want)
		}
	}
	if got := e.Vars(); !slices.Equal(got, want[1:]) {
		t.Fatalf("Vars = %q, want %q", got, want[1:])
	}
	var buf [4]string
	if got := testing.AllocsPerRun(100, func() { e.AppendVars(buf[:0]) }); got != 0 {
		t.Errorf("AppendVars into a stack buffer allocates %.0f per call, budget is 0", got)
	}
}
