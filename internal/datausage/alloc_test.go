package datausage

import (
	"testing"

	"grophecy/internal/brs"
	"grophecy/internal/skeleton"
)

// stringSink keeps budgeted String results on the heap, as real
// callers keep them.
var stringSink string

// Transfer.String names a transfer with one allocation: the returned
// string. The core pipeline names every planned transfer on every
// projection.
func TestTransferStringAllocBudget(t *testing.T) {
	a := skeleton.NewArray("temp_out", skeleton.Float64, 2048, 2048)
	cases := []struct {
		tr   Transfer
		want string
	}{
		{
			Transfer{Dir: Upload, Section: brs.Section{Array: a, Bounds: []brs.Bound{{Lo: 0, Hi: 2047, Stride: 1}, {Lo: 1, Hi: 2045, Stride: 2}}}},
			"upload temp_out[0:2047][1:2045:2] (16760832 bytes)",
		},
		{Transfer{Dir: Download, Section: brs.WholeArray(a)}, "download temp_out[*] (33554432 bytes)"},
	}
	for _, c := range cases {
		if got := c.tr.String(); got != c.want {
			t.Fatalf("String() = %q, want %q", got, c.want)
		}
		if got := testing.AllocsPerRun(200, func() { stringSink = c.tr.String() }); got != 1 {
			t.Errorf("%s: String allocates %.0f per call, budget is 1", c.want, got)
		}
	}
}
