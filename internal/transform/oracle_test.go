package transform

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"grophecy/internal/gpu"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
)

// oracleEnumerate is the straightforward transformation-space
// exploration enumerate replaces: stencil groups accumulated in maps,
// every variant named with fmt.Sprintf, distinct arrays counted per
// variant through a map over k.Accesses(), and the sequential trip
// count recomputed inside the loop. The one deliberate difference
// from the historical builder is the tie order of stencil groups whose
// arrays share a name: it was map order, and is first-load order here
// (as in enumerate) so the comparison is deterministic.
func oracleEnumerate(k *skeleton.Kernel, arch gpu.Arch) ([]Variant, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if len(parallelLoops(k)) == 0 {
		return nil, fmt.Errorf("transform: kernel %q has no parallel loops to map to threads", k.Name)
	}
	an := oracleAnalyze(k, arch)
	variants := make([]Variant, 0, 2*len(blockSizes)*len(unrollFactors))
	for _, bs := range blockSizes {
		if bs > arch.MaxThreadsPerBlock {
			continue
		}
		for _, unroll := range unrollFactors {
			if unroll > 1 && k.SequentialIterations() < int64(unroll) {
				continue
			}
			variants = append(variants, oracleVariant(an, bs, false, unroll))
			if an.stageable() {
				variants = append(variants, oracleVariant(an, bs, true, unroll))
			}
		}
	}
	sort.Slice(variants, func(i, j int) bool { return variants[i].Name < variants[j].Name })
	return variants, nil
}

func oracleAnalyze(k *skeleton.Kernel, arch gpu.Arch) *analysis {
	an := &analysis{
		k:        k,
		arch:     arch,
		threads:  k.ParallelIterations(),
		seqIters: k.SequentialIterations(),
	}
	par := parallelLoops(k)
	an.dims = 1
	if len(par) >= 2 {
		an.dims = 2
	}
	xVar := par[len(par)-1].Var
	yVar := ""
	if an.dims == 2 {
		yVar = par[len(par)-2].Var
	}

	groupLoads := make(map[*skeleton.Array]float64)
	groupCount := make(map[*skeleton.Array]int)
	groupRadius := make(map[*skeleton.Array][2]int64)
	var groupOrder []*skeleton.Array

	halfWarp := int64(arch.WarpSize / 2)
	for _, st := range k.Stmts {
		execs := float64(k.ExecsPerThread(st))
		an.flopsPT += float64(st.Flops) * execs
		an.intOpsPT += float64(st.IntOps) * execs
		an.transcPT += float64(st.Transcendentals) * execs

		for _, ac := range st.Accesses {
			elem := ac.Array.Elem.Size()
			if ac.Kind == skeleton.Load {
				an.loadsPT += execs
				an.loadBytesPT += float64(elem) * execs
			} else {
				an.storesPT += execs
				an.storeBytesPT += float64(elem) * execs
			}
			if ac.IrregularIndex() {
				if affineXCoeff(ac, xVar) == 1 {
					an.regularW += execs
					an.uniformW += execs
					perHalf := (elem*halfWarp + arch.CoalesceSegment - 1) / arch.CoalesceSegment
					an.txnsSumW += 2 * float64(perHalf) * execs
					continue
				}
				an.irregularW += execs
				continue
			}
			coeff, _ := ac.FlattenedCoeff(xVar)
			stride := coeff
			if stride < 0 {
				stride = -stride
			}
			var txns float64
			switch {
			case stride == 0:
				txns = 2
			default:
				bytesSpan := stride * elem
				perHalf := (halfWarp*bytesSpan + arch.CoalesceSegment - 1) / arch.CoalesceSegment
				if perHalf > halfWarp {
					perHalf = halfWarp
				}
				if perHalf < 1 {
					perHalf = 1
				}
				txns = 2 * float64(perHalf)
			}
			an.regularW += execs
			an.txnsSumW += txns * execs

			if ac.Kind == skeleton.Load && isStencilAccess(ac, xVar, yVar) {
				if _, seen := groupCount[ac.Array]; !seen {
					groupOrder = append(groupOrder, ac.Array)
				}
				groupLoads[ac.Array] += execs
				groupCount[ac.Array]++
				r := groupRadius[ac.Array]
				offX, offY := stencilOffsets(ac, xVar, yVar)
				if abs := absInt64(offX); abs > r[0] {
					r[0] = abs
				}
				if abs := absInt64(offY); abs > r[1] {
					r[1] = abs
				}
				groupRadius[ac.Array] = r
			}
		}
	}
	for _, arr := range groupOrder {
		if count := groupCount[arr]; count >= 2 {
			an.groups = append(an.groups, stencilGroup{
				array:   arr,
				loadsPT: groupLoads[arr],
				radius:  groupRadius[arr],
				count:   count,
			})
		}
	}
	sort.SliceStable(an.groups, func(i, j int) bool {
		return an.groups[i].array.Name < an.groups[j].array.Name
	})
	return an
}

func oracleVariant(an *analysis, bs int, staging bool, unroll int) Variant {
	shape := an.blockShape(bs)
	name := fmt.Sprintf("bs%d", bs)
	if staging {
		name += "/tiled"
	}
	if unroll > 1 {
		name += fmt.Sprintf("/unroll%d", unroll)
	}

	accesses := an.loadsPT + an.storesPT
	loopOverhead := 2.0 * float64(an.seqIters) / float64(unroll)
	comp := an.flopsPT + an.intOpsPT + 4*an.transcPT + accesses + loopOverhead

	loads := an.loadsPT
	stores := an.storesPT
	bytes := an.loadBytesPT + an.storeBytesPT

	var shmem int64
	var syncs float64
	if staging {
		for _, g := range an.groups {
			elem := g.array.Elem.Size()
			tileX := int64(shape[0]) + 2*g.radius[0]
			tileY := int64(1)
			if an.dims == 2 {
				tileY = int64(shape[1]) + 2*g.radius[1]
			}
			footprint := tileX * tileY
			shmem += footprint * elem

			fills := float64(footprint) / float64(bs)
			removed := g.loadsPT
			loads = loads - removed + fills
			bytes = bytes - removed*float64(elem) + fills*float64(elem)
			comp += removed
			syncs += 1
		}
		if loads < 0 {
			loads = 0
		}
	}

	totalReqs := an.regularW + an.irregularW
	var txns float64 = 2
	if totalReqs > 0 {
		txns = (an.txnsSumW + 2*an.irregularW) / totalReqs
	}
	if staging {
		txns = math.Min(txns, 2+0.5*(txns-2))
	}

	irregular := 0.0
	if totalReqs > 0 {
		irregular = (an.irregularW + 0.25*an.uniformW) / totalReqs
	}

	regs := 8 + 2*distinctArrays(an.k) + 2*(unroll-1)
	if staging {
		regs += 4
	}

	return Variant{
		Name:          name,
		BlockSize:     bs,
		BlockDims:     shape,
		SharedStaging: staging,
		Unroll:        unroll,
		Ch: perfmodel.Characteristics{
			Name:                   an.k.Name + ":" + name,
			Threads:                an.threads,
			BlockSize:              bs,
			CompInstsPerThread:     comp,
			GlobalLoadsPerThread:   loads,
			GlobalStoresPerThread:  stores,
			TransactionsPerRequest: txns,
			BytesPerThread:         bytes,
			RegsPerThread:          regs,
			SharedMemPerBlock:      shmem,
			SyncsPerThread:         syncs,
			IrregularFraction:      irregular,
		},
	}
}

func parallelLoops(k *skeleton.Kernel) []skeleton.Loop {
	var out []skeleton.Loop
	for _, l := range k.Loops {
		if l.Parallel {
			out = append(out, l)
		}
	}
	return out
}

func distinctArrays(k *skeleton.Kernel) int {
	seen := make(map[*skeleton.Array]bool)
	for _, ac := range k.Accesses() {
		seen[ac.Array] = true
	}
	return len(seen)
}

// checkAgainstOracle fails unless enumerate and oracleEnumerate agree
// deeply, errors included, on the kernel for every GPU preset.
func checkAgainstOracle(t *testing.T, k *skeleton.Kernel) {
	t.Helper()
	for _, arch := range gpu.Presets() {
		got, gotErr := enumerate(k, arch)
		want, wantErr := oracleEnumerate(k, arch)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s on %s: error %v, oracle %v", k.Name, arch.Name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %s: enumerate differs from the oracle\n got %+v\nwant %+v", k.Name, arch.Name, got, want)
		}
	}
}

// TestEnumerateMatchesOracleOnRandomKernels runs the variant builder
// against the oracle on seeded random kernels, which include repeated
// arrays, same-named distinct arrays, stencil offsets, irregular
// gathers and sequential reductions.
func TestEnumerateMatchesOracleOnRandomKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		checkAgainstOracle(t, randomKernel(rng, i))
	}
	for _, k := range []*skeleton.Kernel{stencilKernel(1024), irregularKernel(4096)} {
		checkAgainstOracle(t, k)
	}
}
