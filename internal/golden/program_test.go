package golden

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/program"
	"grophecy/internal/sklang"
	"grophecy/internal/xfermodel"
)

// evaluateProgram runs the multi-phase pipeline.sk program on m
// through the analytic backend, exactly as `grophecy -skeleton
// skeletons/pipeline.sk` does.
func evaluateProgram(t *testing.T, m *core.Machine) core.ProgramReport {
	t.Helper()
	pw, err := sklang.ParseProgramFile(filepath.Join("..", "..", "skeletons", "pipeline.sk"))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := core.New(context.Background(), m, backend.DefaultName, xfermodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.EvaluateProgram(pw.Prog, pw.CPU)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkProgramJSON(t *testing.T, file string, rep core.ProgramReport) {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	check(t, file, append(data, '\n'))
}

// TestGoldenProgramReport pins the residency-aware program pipeline:
// every phase's kernels and transfers, the CPU baseline, and the
// naive per-phase transfer comparison.
func TestGoldenProgramReport(t *testing.T) {
	checkProgramJSON(t, "pipeline.json", evaluateProgram(t, core.NewMachine(experiments.DefaultSeed)))
}

// TestGoldenProgramFaultedReport pins the program pipeline's
// degradation ladder on the fault plan TestGoldenFaultedReport uses.
func TestGoldenProgramFaultedReport(t *testing.T) {
	m := core.NewMachine(experiments.DefaultSeed)
	m.ArmFaults(fault.Plan{
		TransientProb: 0.01,
		OutlierProb:   0.02, OutlierScale: 8, OutlierBurst: 2,
		Seed: 7,
	})
	checkProgramJSON(t, "pipeline-faults.json", evaluateProgram(t, m))
}

// TestProgramDispatchesThroughBackend is a metamorphic check that
// programs predict through the projector's backend: for every
// registered backend, a one-phase program wrapping a paper workload's
// kernel sequence predicts the same per-kernel times and the same
// total transfer time as evaluating the workload directly.
func TestProgramDispatchesThroughBackend(t *testing.T) {
	for _, bk := range backend.Default.Names() {
		for _, name := range skeletons {
			t.Run(bk+"/"+name, func(t *testing.T) {
				w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", name+".sk"))
				if err != nil {
					t.Fatal(err)
				}
				project := func() *core.Projector {
					p, _, err := core.New(context.Background(),
						core.NewMachine(experiments.DefaultSeed), bk, xfermodel.DefaultCalibration())
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				want, err := project().Evaluate(w)
				if err != nil {
					t.Fatal(err)
				}
				prog := &program.Program{Name: w.Name, Phases: []program.Phase{{Seq: w.Seq, Hints: w.Hints}}}
				got, err := project().EvaluateProgram(prog, w.CPU)
				if err != nil {
					t.Fatal(err)
				}
				ph := got.Phases[0]
				if len(ph.Kernels) != len(want.Kernels) {
					t.Fatalf("program projected %d kernels, workload %d", len(ph.Kernels), len(want.Kernels))
				}
				for i, k := range ph.Kernels {
					if !closeRel(k.Predicted, want.Kernels[i].Predicted) {
						t.Errorf("kernel %s: program predicts %g, workload %g",
							k.Kernel, k.Predicted, want.Kernels[i].Predicted)
					}
				}
				if !closeRel(ph.PredTransferTime, want.PredTransferTime) {
					t.Errorf("transfers: program predicts %g, workload %g", ph.PredTransferTime, want.PredTransferTime)
				}
			})
		}
	}
}

// closeRel reports whether a and b agree to 1e-12 relative.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
