package brs

import (
	"testing"

	"grophecy/internal/skeleton"
)

// Allocation budgets for the section-algebra hot path. Union and
// Intersect allocate exactly one slice each: the caller-owned result
// bounds — on the low-rank direct path the computed slice, on the
// memoized high-rank path a clone of the cached bounds (cached bounds
// must never be aliased — callers mutate Bounds in place, as the
// benchmarks themselves do). A regression here, e.g. an accidental
// key-buffer allocation or a missed pool return, shows up as a budget
// bust long before it shows up in a benchmark diff.

func TestUnionAllocBudget(t *testing.T) {
	ac, loops := benchAccess()
	s1 := FromAccess(ac, loops)
	s2 := s1
	s2.Bounds = append([]Bound(nil), s1.Bounds...)
	s2.Bounds[0].Lo += 7
	if got := testing.AllocsPerRun(200, func() { Union(s1, s2) }); got > 1 {
		t.Fatalf("Union allocates %.0f per op, budget is 1", got)
	}
	h1, h2 := highRankSections(opCacheMinRank, 8)
	Union(h1, h2) // warm the memo
	if got := testing.AllocsPerRun(200, func() { Union(h1, h2) }); got > 1 {
		t.Fatalf("memoized Union allocates %.0f per op with a warm cache, budget is 1", got)
	}
}

func TestIntersectAllocBudget(t *testing.T) {
	ac, loops := benchAccess()
	s1 := FromAccess(ac, loops)
	s2 := s1
	s2.Bounds = append([]Bound(nil), s1.Bounds...)
	s2.Bounds[0].Lo += 3
	if got := testing.AllocsPerRun(200, func() { Intersect(s1, s2) }); got > 1 {
		t.Fatalf("Intersect allocates %.0f per op, budget is 1", got)
	}
	h1, h2 := highRankSections(opCacheMinRank, 8)
	Intersect(h1, h2) // warm the memo
	if got := testing.AllocsPerRun(200, func() { Intersect(h1, h2) }); got > 1 {
		t.Fatalf("memoized Intersect allocates %.0f per op with a warm cache, budget is 1", got)
	}
}

func TestWholeArrayFastPathsAllocBudget(t *testing.T) {
	a := skeleton.NewArray("w", skeleton.Float32, 1024, 1024)
	w := WholeArray(a)
	if got := testing.AllocsPerRun(200, func() { Union(w, w) }); got != 0 {
		t.Fatalf("whole-array Union allocates %.0f per op, budget is 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { Intersect(w, w) }); got != 0 {
		t.Fatalf("whole-array Intersect allocates %.0f per op, budget is 0", got)
	}
}

// stringSink keeps budgeted String results on the heap, as real
// callers keep them.
var stringSink string

// Section.String appends into a stack buffer and allocates only the
// returned string.
func TestSectionStringAllocBudget(t *testing.T) {
	a := skeleton.NewArray("temp", skeleton.Float32, 1024, 1024, 4)
	cases := []struct {
		s    Section
		want string
	}{
		{Section{Array: a, Bounds: []Bound{{0, 1023, 1}, {-1, 1022, 1}, {0, 2, 2}}}, "temp[0:1023][-1:1022][0:2:2]"},
		{WholeArray(a), "temp[*]"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Fatalf("String() = %q, want %q", got, c.want)
		}
		if got := testing.AllocsPerRun(200, func() { stringSink = c.s.String() }); got != 1 {
			t.Errorf("%s: String allocates %.0f per call, budget is 1", c.want, got)
		}
	}
}

// FromAccess allocates only the section's bounds: loops are found by
// scanning the nest, and index variables are walked in a stack buffer.
func TestFromAccessAllocBudget(t *testing.T) {
	ac, loops := benchAccess()
	if got := testing.AllocsPerRun(200, func() { FromAccess(ac, loops) }); got != 1 {
		t.Fatalf("FromAccess allocates %.0f per op, budget is 1", got)
	}
}
