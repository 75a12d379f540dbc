package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestPinnedAssumption(t *testing.T) {
	rows, err := PinnedAssumptionCtx(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// At application level, pinned always wins: every workload's
		// transfers are dominated by KB-to-MB arrays above the
		// command-buffer crossover.
		if r.PageableXfer <= r.PinnedXfer {
			t.Errorf("%s %s: pageable transfers (%v) not slower than pinned (%v)",
				r.App, r.DataSize, r.PageableXfer, r.PinnedXfer)
		}
		if r.PageableSpd >= r.PinnedSpeed {
			t.Errorf("%s %s: pageable speedup (%v) not below pinned (%v)",
				r.App, r.DataSize, r.PageableSpd, r.PinnedSpeed)
		}
		// The penalty is meaningful but bounded (staging path, not a
		// catastrophe).
		if p := r.XferPenalty(); p < 1.1 || p > 2.5 {
			t.Errorf("%s %s: pageable penalty %v outside [1.1, 2.5]", r.App, r.DataSize, p)
		}
	}
}

func TestRenderPinnedAssumption(t *testing.T) {
	rows, err := PinnedAssumptionCtx(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := RenderPinnedAssumption(rows)
	if !strings.Contains(s, "penalty") || !strings.Contains(s, "SRAD") {
		t.Error("render incomplete")
	}
}
