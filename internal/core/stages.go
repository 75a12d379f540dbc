package core

import (
	"context"
	"fmt"
	"slices"

	"grophecy/internal/datausage"
	"grophecy/internal/obs"
	"grophecy/internal/pcie"
	"grophecy/internal/telemetry"
	"grophecy/internal/trace"
)

// The projection pipeline is five named stages, each carrying its own
// trace spans, metrics, and degraded-mode notes:
//
//	datausage  - data usage analysis: derive the transfer plan
//	kernels    - per-kernel transformation exploration, kernel-time
//	             prediction, and simulated measurement
//	transfers  - per-transfer prediction and simulated measurement
//	cpu        - the CPU baseline measurement
//	assemble   - totals, derived times, degradation accounting
//
// Stages communicate only through the EvalState. EvaluateCtx runs all
// five over one workload; EvaluateProgramCtx runs kernels and
// transfers once per program phase, over that phase's
// residency-aware plan.

// Stage is one named step of the projection pipeline.
type Stage interface {
	// Name identifies the stage in errors and wall-clock spans.
	Name() string
	// Run advances the evaluation, reading from and writing to st.
	Run(ctx context.Context, st *EvalState) error
}

// EvalState threads one evaluation through the stages. Earlier
// stages fill fields that later stages consume; the Report is
// assembled incrementally and finalized by the assemble stage.
type EvalState struct {
	// Projector is the calibrated pipeline the stages measure through.
	Projector *Projector
	// Workload is the evaluation input.
	Workload Workload
	// Plan is the transfer plan the transfers stage prices: derived by
	// the datausage stage, or a program phase's residency-aware plan.
	Plan datausage.Plan
	// Report accumulates the outcome.
	Report Report

	// cpuPerIter is the measured per-iteration CPU baseline, produced
	// by the cpu stage and totaled by the assemble stage.
	cpuPerIter float64
}

// stages is the paper pipeline EvaluateCtx runs, in order.
var stages = []Stage{analyzeStage{}, kernelStage{}, transferStage{}, cpuStage{}, assembleStage{}}

// DefaultStages returns the paper pipeline's stage sequence.
func DefaultStages() []Stage { return slices.Clone(stages) }

// runStages advances st through seq in order, checking ctx before
// each stage. Each stage runs under a wall-clock "stage.<name>" span
// alongside the simulated spans it opens itself; the span is free
// when no request tracer is installed (the CLI path).
func runStages(ctx context.Context, st *EvalState, seq []Stage) error {
	for _, stage := range seq {
		if err := ctx.Err(); err != nil {
			return err
		}
		sctx, wspan := telemetry.Start(ctx, "stage."+stage.Name())
		err := stage.Run(sctx, st)
		wspan.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// analyzeStage derives the transfer plan from the kernel sequence and
// user hints, and opens the report.
type analyzeStage struct{}

func (analyzeStage) Name() string { return "datausage" }

func (analyzeStage) Run(ctx context.Context, st *EvalState) error {
	p, w := st.Projector, st.Workload
	_, aspan := trace.Start(ctx, "datausage.analyze")
	plan, err := datausage.Analyze(w.Seq, w.Hints)
	if err != nil {
		aspan.End()
		return err
	}
	aspan.SetAttr(trace.Int("uploads", int64(len(plan.Uploads))))
	aspan.SetAttr(trace.Int("downloads", int64(len(plan.Downloads))))
	aspan.SetAttr(trace.Int("bytes", plan.TotalBytes()))
	aspan.End()

	st.Plan = plan
	st.Report = Report{
		Name:         w.Name,
		DataSize:     w.DataSize,
		Iterations:   w.Seq.Iterations,
		Plan:         plan,
		Resilient:    p.meter != nil,
		Degradations: p.calibrationNotes(),
	}
	return nil
}

// kernelStage projects the best variant of each kernel and "measures"
// the hand-coded equivalent on the simulated GPU.
type kernelStage struct{}

func (kernelStage) Name() string { return "kernels" }

func (kernelStage) Run(ctx context.Context, st *EvalState) error {
	p, w := st.Projector, st.Workload
	st.Report.Kernels = make([]KernelResult, 0, len(w.Seq.Kernels))
	for _, k := range w.Seq.Kernels {
		if err := ctx.Err(); err != nil {
			return err
		}
		kctx := obs.WithPhase(ctx, "kernel")
		kctx, kspan := trace.Start(kctx, "kernel "+k.Name)
		variant, proj, err := p.projectKernel(kctx, k)
		if err != nil {
			kspan.End()
			return err
		}
		measured, err := p.measureKernel(kctx, k.Name, variant.Ch, proj.Time, &st.Report.Degradations)
		if err != nil {
			kspan.End()
			return fmt.Errorf("core: measuring kernel %q: %w", k.Name, err)
		}
		st.Report.Kernels = append(st.Report.Kernels, KernelResult{
			Kernel:    k.Name,
			Variant:   variant,
			Predicted: proj.Time,
			Measured:  measured,
		})
		kspan.SetAttr(trace.String("variant", variant.Name))
		kspan.SetAttr(trace.Float("pred_per_invocation_s", proj.Time))
		kspan.SetAttr(trace.Float("meas_per_invocation_s", measured))
		kspan.Advance(proj.Time * float64(w.Seq.Iterations))
		kspan.End()
	}
	return nil
}

// transferStage prices each planned transfer through the backend's
// transfer predictor and measures it on the simulated bus (pinned memory,
// one transfer per array per direction).
type transferStage struct{}

// transferSpanPrefix starts the span name of each planned transfer.
const transferSpanPrefix = "transfer "

func (transferStage) Name() string { return "transfers" }

func (transferStage) Run(ctx context.Context, st *EvalState) error {
	p := st.Projector
	st.Report.Transfers = make([]TransferResult, 0, len(st.Plan.Uploads)+len(st.Plan.Downloads))
	for _, group := range [2][]datausage.Transfer{st.Plan.Uploads, st.Plan.Downloads} {
		for _, tr := range group {
			if err := ctx.Err(); err != nil {
				return err
			}
			dir := busDir(tr)
			// One string serves as the span name and, past its
			// prefix, as the transfer's label.
			var buf [128]byte
			name := string(tr.AppendString(append(buf[:0], transferSpanPrefix...)))
			label := name[len(transferSpanPrefix):]
			tctx := obs.WithPhase(ctx, "transfer")
			tctx, tspan := trace.Start(tctx, name,
				trace.Int("bytes", tr.Bytes()),
				trace.String("dir", tr.Dir.String()))
			pred, err := p.predictTransfer(dir, tr.Bytes())
			if err != nil {
				tspan.End()
				return err
			}
			meas, err := p.measureTransfer(tctx, label, dir, tr.Bytes(), pred, &st.Report.Degradations)
			if err != nil {
				tspan.End()
				return err
			}
			st.Report.Transfers = append(st.Report.Transfers, TransferResult{
				Transfer:  tr,
				Predicted: pred,
				Measured:  meas,
			})
			tspan.SetAttr(trace.Float("pred_s", pred))
			tspan.SetAttr(trace.Float("meas_s", meas))
			tspan.Advance(pred)
			tspan.End()
		}
	}
	return nil
}

// cpuStage measures the CPU baseline: the same offloaded portion, one
// iteration. Off the projected GPU timeline, so its span consumes no
// simulated time.
type cpuStage struct{}

func (cpuStage) Name() string { return "cpu" }

func (cpuStage) Run(ctx context.Context, st *EvalState) error {
	cctx := obs.WithPhase(ctx, "cpu")
	cctx, cspan := trace.Start(cctx, "cpu.baseline")
	cpuPerIter, err := st.Projector.measureCPU(cctx, st.Workload.CPU, &st.Report.Degradations)
	if err != nil {
		cspan.End()
		return err
	}
	st.cpuPerIter = cpuPerIter
	cspan.SetAttr(trace.Float("per_iteration_s", cpuPerIter))
	cspan.End()
	return nil
}

// assembleStage totals the per-kernel and per-transfer results over
// the iteration count (kernels relaunch each iteration; transfers
// happen once) and accounts the degradations.
type assembleStage struct{}

func (assembleStage) Name() string { return "assemble" }

func (assembleStage) Run(ctx context.Context, st *EvalState) error {
	_, span := trace.Start(ctx, "report.assemble",
		trace.Int("kernels", int64(len(st.Report.Kernels))),
		trace.Int("transfers", int64(len(st.Report.Transfers))))
	defer span.End()
	r := &st.Report
	iters := float64(r.Iterations)
	r.PredKernelTime, r.MeasKernelTime, r.PredTransferTime, r.MeasTransferTime = totals(r.Kernels, r.Transfers, iters)
	r.CPUTime = st.cpuPerIter * iters
	mDegradations.Add(int64(len(r.Degradations)))
	return nil
}

// totals sums per-invocation kernel results over iters launches each
// and transfer results once.
func totals(ks []KernelResult, ts []TransferResult, iters float64) (predKernel, measKernel, predXfer, measXfer float64) {
	for _, k := range ks {
		predKernel += k.Predicted * iters
		measKernel += k.Measured * iters
	}
	for _, tr := range ts {
		predXfer += tr.Predicted
		measXfer += tr.Measured
	}
	return
}

// busDir maps a planned transfer onto the bus direction it travels.
func busDir(tr datausage.Transfer) pcie.Direction {
	if tr.Dir == datausage.Download {
		return pcie.DeviceToHost
	}
	return pcie.HostToDevice
}
