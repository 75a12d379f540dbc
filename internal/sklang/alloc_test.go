package sklang

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseAllocBudget holds Parse of each shipped skeleton to 40% of
// the allocations the rune-copying lexer made (hotspot 208, cfd 469,
// srad 334, stassuij 198). The lexer slices token text out of the
// source, and validation allocates nothing on a valid kernel.
func TestParseAllocBudget(t *testing.T) {
	budgets := map[string]float64{
		"hotspot":  83,
		"cfd":      187,
		"srad":     133,
		"stassuij": 79,
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
