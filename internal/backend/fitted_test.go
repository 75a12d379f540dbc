package backend

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"grophecy/internal/gpu"
	"grophecy/internal/gpusim"
	"grophecy/internal/perfmodel"
	"grophecy/internal/stats"
	"grophecy/internal/xfermodel"
)

// microbenchSuite is the suite builder the fitted backend ran on every
// calibration before the suite became a package table: the same grid,
// named with fmt.Sprintf.
func microbenchSuite() []perfmodel.Characteristics {
	type mix struct {
		name          string
		comp          float64
		loads, stores float64
		tpr           float64
		bytes         float64
		irregular     float64
	}
	mixes := []mix{
		{name: "compute", comp: 200, loads: 2, stores: 1, tpr: 2, bytes: 12, irregular: 0},
		{name: "memory", comp: 30, loads: 8, stores: 4, tpr: 8, bytes: 48, irregular: 0.1},
		{name: "balanced", comp: 80, loads: 4, stores: 2, tpr: 4, bytes: 24, irregular: 0},
	}
	var suite []perfmodel.Characteristics
	for _, m := range mixes {
		for _, n := range []int64{1 << 14, 1 << 17, 1 << 20} {
			for _, bs := range []int{128, 256} {
				suite = append(suite, perfmodel.Characteristics{
					Name:                   fmt.Sprintf("microbench:%s/n%d/bs%d", m.name, n, bs),
					Threads:                n,
					BlockSize:              bs,
					CompInstsPerThread:     m.comp,
					GlobalLoadsPerThread:   m.loads,
					GlobalStoresPerThread:  m.stores,
					TransactionsPerRequest: m.tpr,
					BytesPerThread:         m.bytes,
					RegsPerThread:          12,
					IrregularFraction:      m.irregular,
				})
			}
		}
	}
	return suite
}

// referenceFittedPayload is the fitted calibration without the
// per-architecture table: every kernel of microbenchSuite() projected
// and measured (simulation and noise) on a fresh scratch simulator,
// then fitted and encoded. Calibrate must produce the same bytes.
func referenceFittedPayload(comp Components, cfg xfermodel.CalibrationConfig) ([]byte, error) {
	bm, err := xfermodel.CalibrateLeastSquares(comp.Bus, cfg, fittedGrid(cfg))
	if err != nil {
		return nil, err
	}
	simCfg := gpusim.DefaultConfig()
	simCfg.Seed = comp.Seed ^ scratchSeedSalt
	sim := gpusim.New(comp.Arch, simCfg)
	var rows [][]float64
	var ys []float64
	for _, ch := range microbenchSuite() {
		proj, err := perfmodel.Project(comp.Arch, ch)
		if err != nil {
			return nil, err
		}
		measured, err := sim.MeasureMean(ch, cfg.Runs)
		if err != nil {
			return nil, err
		}
		if proj.Time <= 0 {
			continue
		}
		rows = append(rows, kernelFeatureRow(ch))
		ys = append(ys, measured/proj.Time)
	}
	coef, err := stats.FitMulti(rows, ys)
	if err != nil {
		return nil, err
	}
	return json.Marshal(fittedFit{KernelCoef: coef, Bus: bm})
}

// TestMicrobenchKernelsMatchSuite: the package table is the suite the
// Sprintf builder produces, names included.
func TestMicrobenchKernelsMatchSuite(t *testing.T) {
	if !reflect.DeepEqual(microbenchKernels, microbenchSuite()) {
		t.Fatalf("microbenchKernels differs from microbenchSuite()\n got %+v\nwant %+v", microbenchKernels, microbenchSuite())
	}
}

// TestArchSuitesBuildConcurrently builds the per-architecture table
// from an empty start with several goroutines per GPU preset racing on
// first use (run it under -race): every caller of an architecture gets
// the one entry, equal to a private build.
func TestArchSuitesBuildConcurrently(t *testing.T) {
	archSuites.Lock()
	saved := archSuites.byArch
	archSuites.byArch = make(map[gpu.Arch]*archSuite)
	archSuites.Unlock()
	defer func() {
		archSuites.Lock()
		archSuites.byArch = saved
		archSuites.Unlock()
	}()

	presets := gpu.Presets()
	const callers = 4
	got := make([][callers]*archSuite, len(presets))
	var wg sync.WaitGroup
	for i, arch := range presets {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i][c] = suiteOn(arch)
			}()
		}
	}
	wg.Wait()
	for i, arch := range presets {
		want := &archSuite{}
		want.build(arch)
		for c := 0; c < callers; c++ {
			s := got[i][c]
			if s != got[i][0] {
				t.Fatalf("%s: callers got distinct table entries", arch.Name)
			}
			if s.err != nil || !reflect.DeepEqual(s.base, want.base) ||
				!reflect.DeepEqual(s.analytic, want.analytic) || !reflect.DeepEqual(s.rows, want.rows) {
				t.Fatalf("%s: concurrent build differs from a private one", arch.Name)
			}
		}
	}
	if n := len(archSuites.byArch); n != len(presets) {
		t.Fatalf("table holds %d architectures, want %d", n, len(presets))
	}
}

// TestArchSuiteWithNaNIsNotCached: an architecture that cannot equal
// itself as a map key gets a private suite, not a table entry.
func TestArchSuiteWithNaNIsNotCached(t *testing.T) {
	arch := gpu.QuadroFX5600()
	arch.Name = "nan-probe"
	arch.MemLatency = math.NaN()
	suiteOn(arch)
	archSuites.Lock()
	defer archSuites.Unlock()
	for a := range archSuites.byArch {
		if a.Name == arch.Name {
			t.Fatal("an architecture with a NaN field entered the suite table")
		}
	}
}

// TestFittedCalibrateAllocBudget is the allocation ratchet on a fitted
// calibration once its architecture's suite is built: the transfer
// sweep, the scratch simulator, the regression and the encoded fit.
// It took 137 allocations when the suite was rebuilt per calibration;
// it takes 22 now.
func TestFittedCalibrateAllocBudget(t *testing.T) {
	comp := components(5)
	cfg := xfermodel.DefaultCalibration()
	got := testing.AllocsPerRun(20, func() {
		if _, _, err := (fittedBackend{}).Calibrate(context.Background(), comp, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got > 26 {
		t.Fatalf("fitted Calibrate allocates %.0f times, budget is 26", got)
	}
}
