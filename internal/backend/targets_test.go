package backend_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/pcie"
	"grophecy/internal/perfmodel"
	"grophecy/internal/target"
	"grophecy/internal/xfermodel"
)

// calibrationSeeds are the machine seeds the per-target properties run
// at.
const calibrationSeeds = 16

// comp is the calibration input on machine m.
func comp(m *core.Machine) backend.Components {
	return backend.Components{Bus: m.Bus, Arch: m.GPUArch, Seed: m.Seed}
}

// TestCalibrateInstanceEqualsRestore: for every backend, registered
// target, host memory kind and seed, the instance Calibrate returns is
// deeply equal to Restore of the fit it returns. The calibration pool
// serves a miss through the calibrated instance and a warmed key
// through the restored one, so this is what keeps the two
// bit-identical.
func TestCalibrateInstanceEqualsRestore(t *testing.T) {
	ctx := context.Background()
	for _, b := range backend.Default.List() {
		for _, tgt := range target.Default.List() {
			for _, kind := range []pcie.MemoryKind{pcie.Pinned, pcie.Pageable} {
				cfg := xfermodel.DefaultCalibration()
				cfg.Kind = kind
				for seed := uint64(1); seed <= calibrationSeeds; seed++ {
					inst, fit, err := b.Calibrate(ctx, comp(tgt.Machine(seed)), cfg)
					if err != nil {
						t.Fatalf("%s on %s (%v, seed %d): %v", b.Name(), tgt.Name, kind, seed, err)
					}
					restored, err := b.Restore(fit)
					if err != nil {
						t.Fatalf("%s on %s (%v, seed %d): restore: %v", b.Name(), tgt.Name, kind, seed, err)
					}
					if !reflect.DeepEqual(inst, restored) {
						t.Fatalf("%s on %s (%v, seed %d): calibrated instance differs from the restored one\n got %#v\nwant %#v",
							b.Name(), tgt.Name, kind, seed, inst, restored)
					}
				}
			}
		}
	}
}

// TestFittedPayloadMatchesReference: on every registered target, host
// memory kind and seed, the fitted fit is byte-identical to the
// table-free reference calibration of a twin machine, and the fitted
// calibration leaves the machine's GPU noise stream where it was.
func TestFittedPayloadMatchesReference(t *testing.T) {
	fitted, err := backend.Get("fitted")
	if err != nil {
		t.Fatal(err)
	}
	probe := perfmodel.Characteristics{
		Name: "probe", Threads: 1 << 16, BlockSize: 256, CompInstsPerThread: 40,
		GlobalLoadsPerThread: 2, GlobalStoresPerThread: 1, TransactionsPerRequest: 2,
		BytesPerThread: 12, RegsPerThread: 10,
	}
	ctx := context.Background()
	for _, tgt := range target.Default.List() {
		for _, kind := range []pcie.MemoryKind{pcie.Pinned, pcie.Pageable} {
			cfg := xfermodel.DefaultCalibration()
			cfg.Kind = kind
			for seed := uint64(1); seed <= calibrationSeeds; seed++ {
				m, twin := tgt.Machine(seed), tgt.Machine(seed)
				_, fit, err := fitted.Calibrate(ctx, comp(m), cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := backend.FittedReferencePayload(comp(twin), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fit.Payload, want) {
					t.Fatalf("%s (%v, seed %d): fitted payload\n %s\ndiffers from the reference\n %s",
						tgt.Name, kind, seed, fit.Payload, want)
				}
				got, err := m.GPU.Run(probe)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := tgt.Machine(seed).GPU.Run(probe)
				if err != nil {
					t.Fatal(err)
				}
				if got != fresh {
					t.Fatalf("%s (%v, seed %d): GPU draw after a fitted calibration %v, on a fresh machine %v",
						tgt.Name, kind, seed, got, fresh)
				}
			}
		}
	}
}
