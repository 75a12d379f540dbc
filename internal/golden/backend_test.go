package golden

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/xfermodel"
)

// evaluateBackend runs the full pipeline on one skeleton file through
// a named prediction backend at the default seed, exactly as
// `grophecy -skeleton ... -backend ...` does. It returns both the
// report and the calibration fit so tests can exercise the restore
// path.
func evaluateBackend(t *testing.T, name, backendName string) (core.Report, backend.Fit) {
	t.Helper()
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", name+".sk"))
	if err != nil {
		t.Fatal(err)
	}
	p, fit, err := core.New(context.Background(),
		core.NewMachine(experiments.DefaultSeed), backendName, xfermodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep, fit
}

// TestBackendGoldenReports pins the fitted and piecewise backends'
// text reports on the four paper workloads, the same way the analytic
// golden files pin the default pipeline. Regenerate with -update
// after intended model changes.
func TestBackendGoldenReports(t *testing.T) {
	for _, bk := range []string{"fitted", "piecewise"} {
		for _, name := range skeletons {
			t.Run(bk+"/"+name, func(t *testing.T) {
				rep, _ := evaluateBackend(t, name, bk)
				check(t, name+"-"+bk+".txt", []byte(report.Text(rep)))
			})
		}
	}
}

// TestAnalyticBackendByteIdentity is the refactor's core contract:
// the analytic backend resolved through the registry produces reports
// byte-identical to the pre-backend golden files — the same files
// TestGoldenTextReports checks through the legacy core.NewProjector
// constructor. A diff here means the Backend indirection changed a
// noise draw or a prediction on the default path.
func TestAnalyticBackendByteIdentity(t *testing.T) {
	for _, name := range skeletons {
		t.Run(name, func(t *testing.T) {
			rep, _ := evaluateBackend(t, name, backend.DefaultName)
			got := []byte(report.Text(rep))
			// Never -update through this test: the analytic files are
			// owned by TestGoldenTextReports; this test only verifies.
			legacy := []byte(report.Text(evaluate(t, name)))
			if !bytes.Equal(got, legacy) {
				t.Fatalf("analytic backend diverged from core.NewProjector on %s", name)
			}
			check(t, name+".txt", got)
		})
	}
}

// TestRestoredBackendMatchesLive: for every backend, a projector
// restored from the calibration fit on a machine at the same bus
// noise state predicts exactly what the live-calibrated projector
// predicted. This is the invariant the daemon's snapshot warm-start
// depends on.
func TestRestoredBackendMatchesLive(t *testing.T) {
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", "hotspot.sk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range backend.Default.Names() {
		t.Run(bk, func(t *testing.T) {
			m := core.NewMachine(experiments.DefaultSeed)
			p, fit, err := core.New(context.Background(), m, bk, xfermodel.DefaultCalibration())
			if err != nil {
				t.Fatal(err)
			}
			// The bus noise state right after calibration — what the
			// pool snapshots — before evaluation advances it further.
			busState := m.Bus.NoiseState()
			liveRep, err := p.Evaluate(w)
			if err != nil {
				t.Fatal(err)
			}
			live, err := report.JSON(liveRep)
			if err != nil {
				t.Fatal(err)
			}

			m2 := core.NewMachine(experiments.DefaultSeed)
			m2.Bus.SetNoiseState(busState)
			b, err := backend.Get(bk)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := b.Restore(fit)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := core.NewRestoredProjector(m2, bk, fit.Kind, inst)
			if err != nil {
				t.Fatal(err)
			}
			restoredRep, err := rp.Evaluate(w)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := report.JSON(restoredRep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live, restored) {
				t.Errorf("restored %s projector diverged from the live calibration", bk)
			}
		})
	}
}
