package engine

import (
	"bytes"
	"context"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/pcie"
	"grophecy/internal/target"
	"grophecy/internal/xfermodel"
)

// TestPoolReportsIdenticalAcrossMissHitAndWarm: for every backend, the
// report from the flight owner (a miss), from a hit, and from a pool
// warmed with the exported entry are byte-identical, and equal to
// calibrating a fresh machine and projecting on it.
func TestPoolReportsIdenticalAcrossMissHitAndWarm(t *testing.T) {
	w := workload(t)
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, bk := range backend.Default.Names() {
		t.Run(bk, func(t *testing.T) {
			cfg := xfermodel.DefaultCalibration()
			cfg.Kind = pcie.Pinned
			live, _, err := core.New(ctx, tgt.Machine(seed), bk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := projectJSON(t, live, w)

			pool := NewPoolWith(Config{})
			reports := map[string][]byte{}
			for _, name := range []string{"miss", "hit"} {
				p, err := pool.Projector(ctx, tgt, bk, seed, pcie.Pinned)
				if err != nil {
					t.Fatal(err)
				}
				reports[name] = projectJSON(t, p, w)
			}
			if pool.Misses() != 1 || pool.Hits() != 1 {
				t.Fatalf("misses %d hits %d, want 1 and 1", pool.Misses(), pool.Hits())
			}
			warm := NewPoolWith(Config{})
			if n := warm.Warm(pool.Export()); n != 1 {
				t.Fatalf("warmed %d entries, want 1", n)
			}
			p, err := warm.Projector(ctx, tgt, bk, seed, pcie.Pinned)
			if err != nil {
				t.Fatal(err)
			}
			reports["warm"] = projectJSON(t, p, w)
			if warm.Misses() != 0 {
				t.Fatalf("warmed pool calibrated %d times", warm.Misses())
			}
			for name, got := range reports {
				if !bytes.Equal(got, want) {
					t.Errorf("%s report differs from calibrate-then-project", name)
				}
			}
		})
	}
}

// TestPoolHitSkipsFitDecode: a hit projects through the instance the
// calibration restored, never decoding the stored fit again. With the
// cached payload replaced by garbage, hits still serve the same report,
// and a warm hit stays within its allocation budget.
func TestPoolHitSkipsFitDecode(t *testing.T) {
	w := workload(t)
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, bk := range backend.Default.Names() {
		t.Run(bk, func(t *testing.T) {
			pool := NewPoolWith(Config{})
			p, err := pool.Projector(ctx, tgt, bk, seed, pcie.Pinned)
			if err != nil {
				t.Fatal(err)
			}
			want := projectJSON(t, p, w)

			key := Key{Target: tgt.Name, Backend: bk, Kind: pcie.Pinned, Seed: seed}
			pool.mu.Lock()
			pool.flights[key].cal.fit.Payload = []byte("not a fit")
			pool.mu.Unlock()

			p, err = pool.Projector(ctx, tgt, bk, seed, pcie.Pinned)
			if err != nil {
				t.Fatalf("hit decoded the stored fit: %v", err)
			}
			if got := projectJSON(t, p, w); !bytes.Equal(got, want) {
				t.Error("hit report differs from the miss")
			}

			allocs := testing.AllocsPerRun(100, func() {
				if _, err := pool.Projector(ctx, tgt, bk, seed, pcie.Pinned); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > hitAllocBudget {
				t.Errorf("warm Pool.Projector hit allocates %.0f, budget is %d", allocs, hitAllocBudget)
			}
		})
	}
}

// hitAllocBudget bounds a warm Pool.Projector hit: the caller-private
// machine and the projector around the shared instance, 9 allocations
// for every backend. Decoding the fit per hit cost 18 (analytic), 23
// (fitted) and 29 (piecewise).
const hitAllocBudget = 12
