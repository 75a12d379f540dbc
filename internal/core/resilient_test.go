package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/xfermodel"
)

const machineSeed = 42

// acceptancePlan is the ISSUE's scenario: at least 1% transient
// failures plus outlier bursts on every measurement surface.
func acceptancePlan() fault.Plan {
	return fault.Plan{
		TransientProb: 0.01,
		OutlierProb:   0.02, OutlierScale: 8, OutlierBurst: 2,
		Seed: 7,
	}
}

// newResilient builds the projector for a fault-armed machine, which
// core.New calibrates and measures through the resilient layer.
func newResilient(t *testing.T, ctx context.Context, m *core.Machine) *core.Projector {
	t.Helper()
	p, _, err := core.New(ctx, m, backend.DefaultName, xfermodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// benchWorkloads returns the four paper workloads at one
// representative size each.
func benchWorkloads(t *testing.T) []core.Workload {
	t.Helper()
	cfd, err := bench.CFD("233K")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := bench.HotSpot("1024 x 1024")
	if err != nil {
		t.Fatal(err)
	}
	srad, err := bench.SRAD("4096 x 4096")
	if err != nil {
		t.Fatal(err)
	}
	return []core.Workload{cfd, hs, srad, bench.Stassuij()}
}

// resilientReports runs the full resilient pipeline (fault-armed
// machine, resilient calibration, robust evaluation) over the bench
// workloads and returns the reports JSON-encoded.
func resilientReports(t *testing.T, plan fault.Plan) []byte {
	t.Helper()
	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(plan)
	p := newResilient(t, ctx, machine)
	var reports []core.Report
	for _, w := range benchWorkloads(t) {
		rep, err := p.EvaluateCtx(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Resilient {
			t.Errorf("%s: report not flagged resilient", w.Name)
		}
		reports = append(reports, rep)
	}
	out, err := json.MarshalIndent(reports, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestResilientReportsByteIdentical(t *testing.T) {
	a := resilientReports(t, acceptancePlan())
	b := resilientReports(t, acceptancePlan())
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and fault plan produced different reports")
	}
}

func TestResilientSpeedupWithinMarginOfClean(t *testing.T) {
	// Clean baseline: the paper's raw pipeline, no faults.
	clean, err := core.NewProjector(core.NewMachine(machineSeed))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(acceptancePlan())
	faulty := newResilient(t, ctx, machine)

	// The stated acceptance margin: with >= 1% transients plus outlier
	// bursts, the resilient pipeline's projected speedup stays within
	// 30% of the clean run's on every workload.
	const margin = 0.30
	for _, w := range benchWorkloads(t) {
		cr, err := clean.Evaluate(w)
		if err != nil {
			t.Fatalf("%s clean: %v", w.Name, err)
		}
		fr, err := faulty.EvaluateCtx(ctx, w)
		if err != nil {
			t.Fatalf("%s faulty: %v", w.Name, err)
		}
		rel := math.Abs(fr.SpeedupFull()-cr.SpeedupFull()) / cr.SpeedupFull()
		if rel > margin {
			t.Errorf("%s: faulty speedup %.3f vs clean %.3f (%.1f%% off, margin %.0f%%)",
				w.Name, fr.SpeedupFull(), cr.SpeedupFull(), 100*rel, 100*margin)
		}
	}
}

func TestResilientDegradationsReported(t *testing.T) {
	// A brutal plan: 60% transients exhausts the 4-retry budget often
	// enough that degradations must appear, yet the pipeline still
	// completes every workload.
	plan := fault.Plan{TransientProb: 0.60, Seed: 3}
	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(plan)
	p := newResilient(t, ctx, machine)
	sawDegradation := false
	for _, w := range benchWorkloads(t) {
		rep, err := p.EvaluateCtx(ctx, w)
		if err != nil {
			t.Fatalf("%s: pipeline failed instead of degrading: %v", w.Name, err)
		}
		if len(rep.Degradations) > 0 {
			sawDegradation = true
		}
	}
	if !sawDegradation && !p.Health().Degraded() {
		t.Error("60% transient rate produced no recorded degradations")
	}
}

func TestResilientEvaluateCancelled(t *testing.T) {
	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(acceptancePlan())
	p := newResilient(t, ctx, machine)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	w := benchWorkloads(t)[0]
	if _, err := p.EvaluateCtx(cancelled, w); err == nil {
		t.Fatal("cancelled evaluation succeeded")
	}
}

// TestNewRejectsNonAnalyticUnderFaults: the resilient path predicts
// with the analytic backend only, and core.New refuses any other
// backend on an armed machine before drawing a single bus transfer.
func TestNewRejectsNonAnalyticUnderFaults(t *testing.T) {
	for _, name := range []string{"fitted", "piecewise"} {
		t.Run(name, func(t *testing.T) {
			machine := core.NewMachine(machineSeed)
			faults := machine.ArmFaults(acceptancePlan())
			before := machine.Bus.NoiseState()
			p, _, err := core.New(context.Background(), machine, name, xfermodel.DefaultCalibration())
			if !errors.Is(err, errdefs.ErrInvalidInput) {
				t.Fatalf("core.New(%s) on a faulted machine: projector %v, err %v; want ErrInvalidInput", name, p, err)
			}
			if after := machine.Bus.NoiseState(); after != before {
				t.Errorf("bus noise state moved from %v to %v: calibration transfers were drawn", before, after)
			}
			if s := faults.Stats(); s != (fault.Stats{}) {
				t.Errorf("fault layer saw traffic: %s", s)
			}
		})
	}
}
