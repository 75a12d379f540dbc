package core

import (
	"slices"
	"testing"
)

// TestStageNames pins the pipeline's stage names in execution
// order: wall-clock spans ("stage.<name>") and per-stage replays key
// on them.
func TestStageNames(t *testing.T) {
	want := []string{"datausage", "kernels", "transfers", "cpu", "assemble"}
	var got []string
	for _, s := range DefaultStages() {
		got = append(got, s.Name())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("DefaultStages() names = %v, want %v", got, want)
	}
}
