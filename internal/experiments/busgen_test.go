package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestBusGenerations(t *testing.T) {
	rows, err := BusGenerationsCtx(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// A faster bus can only help: speedup increases and transfer
		// share decreases monotonically across generations.
		for g := 1; g < 3; g++ {
			if r.Speedup[g] <= r.Speedup[g-1] {
				t.Errorf("%s %s: speedup not increasing at gen %d: %v",
					r.App, r.DataSize, g+1, r.Speedup)
			}
			if r.PercentTransfer[g] >= r.PercentTransfer[g-1] {
				t.Errorf("%s %s: transfer share not decreasing at gen %d: %v",
					r.App, r.DataSize, g+1, r.PercentTransfer)
			}
		}
		// Stassuij stays a slowdown even on PCIe v3: the flip is not
		// an artifact of the 2007 bus.
		if r.App == "Stassuij" && r.Speedup[2] >= 1 {
			t.Errorf("Stassuij wins on PCIe v3 (%vx) — transfer volume should still dominate",
				r.Speedup[2])
		}
	}
}

func TestRenderBusGenerations(t *testing.T) {
	rows, err := BusGenerationsCtx(context.Background(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := RenderBusGenerations(rows)
	for _, want := range []string{"PCIe v1", "PCIe v3", "Stassuij"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
