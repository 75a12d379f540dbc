package sklang

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseAllocBudget holds Parse of each shipped skeleton near the
// 20 allocations it measures, against 208 (hotspot), 469 (cfd), 334
// (srad) and 198 (stassuij) with the rune-copying lexer and 73, 172,
// 119 and 64 with map-held index coefficients. The lexer slices token
// text out of the source, the parse output is carved from slabs
// presized from the token stream, and validation allocates nothing on
// a valid kernel.
func TestParseAllocBudget(t *testing.T) {
	budgets := map[string]float64{
		"hotspot":  22,
		"cfd":      22,
		"srad":     22,
		"stassuij": 22,
	}
	for name, budget := range budgets {
		data, err := os.ReadFile(filepath.Join("..", "..", "skeletons", name+".sk"))
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		got := testing.AllocsPerRun(50, func() {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Errorf("%s: Parse allocates %.0f per call, budget is %.0f", name, got, budget)
		}
	}
}
