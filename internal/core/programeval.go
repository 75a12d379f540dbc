package core

import (
	"context"
	"fmt"

	"grophecy/internal/cpumodel"
	"grophecy/internal/datausage"
	"grophecy/internal/program"
	"grophecy/internal/trace"
)

// Program-level evaluation: the single-region pipeline of Evaluate,
// generalized over a multi-phase program with GPU-residency-aware
// transfer planning (internal/program). The extra output is the
// comparison against naive per-phase planning, which quantifies how
// much the residency analysis saves.

// PhaseReport is one phase's outcome.
type PhaseReport struct {
	Kernels   []KernelResult
	Transfers []TransferResult
	// PredKernelTime/MeasKernelTime cover the phase's iterations.
	PredKernelTime   float64
	MeasKernelTime   float64
	PredTransferTime float64
	MeasTransferTime float64
}

// ProgramReport aggregates a whole program.
type ProgramReport struct {
	Name   string
	Phases []PhaseReport

	// CPUTime is the measured CPU baseline for the whole program.
	CPUTime float64

	// NaiveTransferPred is what per-phase (residency-blind) planning
	// would have predicted for transfers, for the savings comparison.
	NaiveTransferPred float64

	// Resilient and Degradations mirror Report's fields: set only when
	// the program was evaluated through the resilient measurement layer.
	Resilient    bool     `json:",omitempty"`
	Degradations []string `json:",omitempty"`
}

// Totals sums across phases.
func (r ProgramReport) Totals() (predKernel, measKernel, predXfer, measXfer float64) {
	for _, ph := range r.Phases {
		predKernel += ph.PredKernelTime
		measKernel += ph.MeasKernelTime
		predXfer += ph.PredTransferTime
		measXfer += ph.MeasTransferTime
	}
	return
}

// MeasuredSpeedup is CPU time over measured total GPU time.
func (r ProgramReport) MeasuredSpeedup() float64 {
	_, mk, _, mx := r.Totals()
	return r.CPUTime / (mk + mx)
}

// SpeedupFull is the residency-aware GROPHECY++ prediction.
func (r ProgramReport) SpeedupFull() float64 {
	pk, _, px, _ := r.Totals()
	return r.CPUTime / (pk + px)
}

// ResidencySavings is the fraction of predicted transfer time the
// residency analysis eliminated versus naive per-phase planning.
func (r ProgramReport) ResidencySavings() float64 {
	if r.NaiveTransferPred == 0 {
		return 0
	}
	pk := 0.0
	for _, ph := range r.Phases {
		pk += ph.PredTransferTime
	}
	return 1 - pk/r.NaiveTransferPred
}

// EvaluateProgram runs the full pipeline over a multi-phase program.
// baseline describes one run of the whole program on the CPU.
func (p *Projector) EvaluateProgram(prog *program.Program, baseline cpumodel.Workload) (ProgramReport, error) {
	return p.EvaluateProgramCtx(context.Background(), prog, baseline)
}

// EvaluateProgramCtx is EvaluateProgram with cancellation and — on a
// resilient projector — the same degradation ladder as EvaluateCtx.
// Each phase runs the kernels and transfers stages over its own
// EvalState, whose plan is the phase's residency-aware plan; the
// phase's naive plan is priced through the same backend for the
// savings comparison.
func (p *Projector) EvaluateProgramCtx(ctx context.Context, prog *program.Program, baseline cpumodel.Workload) (ProgramReport, error) {
	plan, err := program.Analyze(prog)
	if err != nil {
		return ProgramReport{}, err
	}
	if err := baseline.Validate(); err != nil {
		return ProgramReport{}, err
	}

	rep := ProgramReport{Name: prog.Name, Resilient: p.meter != nil, Degradations: p.calibrationNotes()}
	ctx, espan := trace.Start(ctx, "evaluate.program",
		trace.String("program", prog.Name),
		trace.Int("phases", int64(len(prog.Phases))))
	defer espan.End()
	for i, ph := range prog.Phases {
		pp := plan.Phases[i]
		st := &EvalState{
			Projector: p,
			Workload:  Workload{Name: prog.Name, Seq: ph.Seq},
			Plan:      datausage.Plan{Uploads: pp.Uploads, Downloads: pp.Downloads},
			Report:    Report{Degradations: rep.Degradations},
		}
		phctx, phspan := trace.Start(ctx, fmt.Sprintf("phase %d", i+1))
		err := runStages(phctx, st, phaseStages)
		rep.Degradations = st.Report.Degradations
		if err != nil {
			phspan.End()
			return ProgramReport{}, fmt.Errorf("core: phase %d: %w", i, err)
		}
		pr := PhaseReport{Kernels: st.Report.Kernels, Transfers: st.Report.Transfers}
		pr.PredKernelTime, pr.MeasKernelTime, pr.PredTransferTime, pr.MeasTransferTime =
			totals(pr.Kernels, pr.Transfers, float64(ph.Seq.Iterations))
		rep.Phases = append(rep.Phases, pr)
		phspan.SetAttr(trace.Float("pred_kernel_s", pr.PredKernelTime))
		phspan.SetAttr(trace.Float("pred_transfer_s", pr.PredTransferTime))
		phspan.End()

		for _, group := range [2][]datausage.Transfer{pp.Naive.Uploads, pp.Naive.Downloads} {
			for _, tr := range group {
				t, err := p.predictTransfer(busDir(tr), tr.Bytes())
				if err != nil {
					return ProgramReport{}, err
				}
				rep.NaiveTransferPred += t
			}
		}
	}

	cpu, err := p.measureCPU(ctx, baseline, &rep.Degradations)
	if err != nil {
		return ProgramReport{}, err
	}
	rep.CPUTime = cpu
	return rep, nil
}

// phaseStages are the stages EvaluateProgramCtx runs per phase: the
// plan comes from the program analysis, and the CPU baseline covers
// the whole program.
var phaseStages = []Stage{kernelStage{}, transferStage{}}
