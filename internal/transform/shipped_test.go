package transform_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"grophecy/internal/gpu"
	"grophecy/internal/skeleton"
	"grophecy/internal/sklang"
	"grophecy/internal/transform"
)

// shippedKernels parses every shipped skeleton and returns its
// kernels: the four single-sequence workloads and the phases of the
// pipeline program.
func shippedKernels(tb testing.TB) []*skeleton.Kernel {
	tb.Helper()
	dir := filepath.Join("..", "..", "skeletons")
	var ks []*skeleton.Kernel
	for _, name := range []string{"cfd", "hotspot", "srad", "stassuij"} {
		w, err := sklang.ParseFile(filepath.Join(dir, name+".sk"))
		if err != nil {
			tb.Fatal(err)
		}
		ks = append(ks, w.Seq.Kernels...)
	}
	pw, err := sklang.ParseProgramFile(filepath.Join(dir, "pipeline.sk"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, ph := range pw.Prog.Phases {
		ks = append(ks, ph.Seq.Kernels...)
	}
	return ks
}

// TestEnumerateMatchesOracleOnShippedSkeletons: on every shipped
// kernel and GPU preset the variant builder is deeply equal to the
// Sprintf/map oracle.
func TestEnumerateMatchesOracleOnShippedSkeletons(t *testing.T) {
	for _, k := range shippedKernels(t) {
		for _, arch := range gpu.Presets() {
			got, err := transform.EnumerateCold(k, arch)
			if err != nil {
				t.Fatalf("%s on %s: %v", k.Name, arch.Name, err)
			}
			want, err := transform.EnumerateOracle(k, arch)
			if err != nil {
				t.Fatalf("%s on %s: oracle: %v", k.Name, arch.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: enumerate differs from the oracle\n got %+v\nwant %+v", k.Name, arch.Name, got, want)
			}
		}
	}
}

// TestColdEnumerateAllocBudget is the allocation ratchet on a memo
// miss: with the memo off, Enumerate of a shipped kernel allocates one
// characteristics name per variant plus at most 8 more (the variant
// slice, the stencil groups, the memo entry, the caller's copy).
// Measured: names + 3 to 6 on every shipped kernel.
func TestColdEnumerateAllocBudget(t *testing.T) {
	prev := transform.SetCacheEnabled(false)
	defer transform.SetCacheEnabled(prev)
	arch := gpu.QuadroFX5600()
	for _, k := range shippedKernels(t) {
		variants, err := transform.Enumerate(k, arch)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := transform.Enumerate(k, arch); err != nil {
				t.Fatal(err)
			}
		})
		if budget := float64(len(variants) + 8); got > budget {
			t.Errorf("%s: cold Enumerate allocates %.0f times for %d variants, budget is %.0f",
				k.Name, got, len(variants), budget)
		}
	}
}
