package transform

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"grophecy/internal/gpu"
	"grophecy/internal/skeleton"
)

// randomKernel generates a seeded random valid kernel: 1-2 parallel
// loops (optionally followed by a sequential reduction loop), arrays
// whose ranks match the parallel loop nest, and affine or irregular
// accesses. The generator exercises the whole canonical-encoding
// surface: repeated arrays, identical-content distinct arrays,
// shifted indices, irregular indices, and varying instruction mixes.
func randomKernel(rng *rand.Rand, id int) *skeleton.Kernel {
	sizes := []int64{128, 256, 512, 1024}
	nPar := 1 + rng.Intn(2)
	loops := make([]skeleton.Loop, 0, 3)
	vars := make([]string, 0, 3)
	dims := make([]int64, 0, 2)
	for i := 0; i < nPar; i++ {
		v := fmt.Sprintf("i%d", i)
		n := sizes[rng.Intn(len(sizes))]
		loops = append(loops, skeleton.ParLoop(v, n))
		vars = append(vars, v)
		dims = append(dims, n)
	}
	if rng.Intn(3) == 0 {
		loops = append(loops, skeleton.SeqLoop("r", int64(4+rng.Intn(60))))
	}

	elems := []skeleton.ElemType{skeleton.Float32, skeleton.Int32}
	nArr := 1 + rng.Intn(3)
	arrays := make([]*skeleton.Array, nArr)
	for i := range arrays {
		arrays[i] = skeleton.NewArray(fmt.Sprintf("a%d", i), elems[rng.Intn(len(elems))], dims...)
	}
	// Occasionally add a second array with *identical content* but
	// distinct identity: the canonical encoding must keep them apart
	// (distinct arrays change the register estimate).
	if rng.Intn(4) == 0 {
		arrays = append(arrays, skeleton.NewArray(arrays[0].Name, arrays[0].Elem, dims...))
	}

	idx := func() []skeleton.IndexExpr {
		out := make([]skeleton.IndexExpr, len(dims))
		for d := range out {
			switch rng.Intn(3) {
			case 0:
				out[d] = skeleton.Idx(vars[d])
			case 1:
				out[d] = skeleton.IdxPlus(vars[d], int64(rng.Intn(5)-2))
			default:
				out[d] = skeleton.Idx(vars[len(vars)-1-d])
			}
		}
		return out
	}

	nLoads := 1 + rng.Intn(5)
	accs := make([]skeleton.Access, 0, nLoads+1)
	for i := 0; i < nLoads; i++ {
		a := arrays[rng.Intn(len(arrays))]
		if len(dims) == 1 && rng.Intn(5) == 0 {
			accs = append(accs, skeleton.LoadOf(a, skeleton.IdxIrregular()))
			continue
		}
		accs = append(accs, skeleton.LoadOf(a, idx()...))
	}
	accs = append(accs, skeleton.StoreOf(arrays[rng.Intn(len(arrays))], idx()...))

	return &skeleton.Kernel{
		Name:  fmt.Sprintf("rand%d", id),
		Loops: loops,
		Stmts: []skeleton.Statement{{
			Accesses:        accs,
			Flops:           rng.Intn(64),
			IntOps:          rng.Intn(16),
			Transcendentals: rng.Intn(4),
		}},
	}
}

// TestMemoizedEnumerationMatchesCold is the memoization property
// test: across seeded random kernels, Enumerate through a cold cache,
// Enumerate through a warm cache, and the uncached enumerate must be
// deeply equal — and the warm path must actually hit.
func TestMemoizedEnumerationMatchesCold(t *testing.T) {
	prev := SetCacheEnabled(true)
	defer SetCacheEnabled(prev)
	ResetCache()

	rng := rand.New(rand.NewSource(7))
	arch := gpu.QuadroFX5600()
	archs := []gpu.Arch{arch, gpu.TeslaC2050()}
	for i := 0; i < 60; i++ {
		k := randomKernel(rng, i)
		if err := k.Validate(); err != nil {
			t.Fatalf("generator produced an invalid kernel: %v", err)
		}
		a := archs[i%len(archs)]

		cold, err := enumerate(k, a)
		if err != nil {
			t.Fatalf("kernel %d: cold enumerate: %v", i, err)
		}
		before := Stats()
		miss, err := Enumerate(k, a)
		if err != nil {
			t.Fatalf("kernel %d: miss-path Enumerate: %v", i, err)
		}
		hit, err := Enumerate(k, a)
		if err != nil {
			t.Fatalf("kernel %d: hit-path Enumerate: %v", i, err)
		}
		after := Stats()

		if !reflect.DeepEqual(cold, miss) {
			t.Fatalf("kernel %d: miss-path variants differ from cold enumeration", i)
		}
		if !reflect.DeepEqual(cold, hit) {
			t.Fatalf("kernel %d: hit-path variants differ from cold enumeration", i)
		}
		if after.Hits < before.Hits+1 {
			t.Fatalf("kernel %d: second Enumerate did not hit (stats %+v -> %+v)", i, before, after)
		}
	}
}

// TestEnumerateReturnsCallerOwnedSlices: mutating one call's result
// must not leak into the next call's (the cache clones on return).
func TestEnumerateReturnsCallerOwnedSlices(t *testing.T) {
	prev := SetCacheEnabled(true)
	defer SetCacheEnabled(prev)
	ResetCache()

	k := stencilKernel(512)
	arch := gpu.QuadroFX5600()
	first, err := Enumerate(k, arch)
	if err != nil {
		t.Fatal(err)
	}
	want := first[0].Name
	first[0].Name = "CLOBBERED"
	first[0].Ch.Threads = -1

	second, err := Enumerate(k, arch)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Name != want || second[0].Ch.Threads < 0 {
		t.Fatalf("cache leaked a caller mutation: %+v", second[0])
	}
}

// TestBestMatchesAcrossCacheStates: the selected best variant and its
// projection must be identical with the cache disabled, on a cache
// miss, and on a cache hit (where the memoized best short-circuits
// candidate evaluation).
func TestBestMatchesAcrossCacheStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arch := gpu.QuadroFX5600()
	for i := 0; i < 20; i++ {
		k := randomKernel(rng, 1000+i)

		SetCacheEnabled(false)
		vOff, pOff, errOff := Best(k, arch)

		SetCacheEnabled(true)
		ResetCache()
		vMiss, pMiss, errMiss := Best(k, arch)
		vHit, pHit, errHit := Best(k, arch)
		SetCacheEnabled(false)

		if (errOff == nil) != (errMiss == nil) || (errOff == nil) != (errHit == nil) {
			t.Fatalf("kernel %d: error disagreement: off=%v miss=%v hit=%v", i, errOff, errMiss, errHit)
		}
		if errOff != nil {
			continue
		}
		if !reflect.DeepEqual(vOff, vMiss) || !reflect.DeepEqual(pOff, pMiss) {
			t.Fatalf("kernel %d: miss-path best differs from uncached", i)
		}
		if !reflect.DeepEqual(vOff, vHit) || !reflect.DeepEqual(pOff, pHit) {
			t.Fatalf("kernel %d: hit-path best differs from uncached", i)
		}
	}
	SetCacheEnabled(true)
}

// TestCacheEviction: the FIFO bound holds and evicted keys recompute
// correctly.
func TestCacheEviction(t *testing.T) {
	prev := SetCacheEnabled(true)
	defer SetCacheEnabled(prev)
	ResetCache()

	rng := rand.New(rand.NewSource(3))
	arch := gpu.QuadroFX5600()
	for i := 0; i < maxCacheEntries+40; i++ {
		k := randomKernel(rng, 2000+i)
		if _, err := Enumerate(k, arch); err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
	}
	if st := Stats(); st.Entries > maxCacheEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", st.Entries, maxCacheEntries)
	}
}

// TestCacheKeyCoversEveryArchField walks gpu.Arch by reflection,
// perturbs each field in turn, and asserts the memo key changes: an
// architecture field the key leaves out would let two architectures
// share one cached enumeration.
func TestCacheKeyCoversEveryArchField(t *testing.T) {
	k := randomKernel(rand.New(rand.NewSource(1)), 0)
	base := gpu.QuadroFX5600()
	baseKey := string(cacheKey(nil, k, base))
	if again := string(cacheKey(nil, k, base)); again != baseKey {
		t.Fatalf("cache key is not deterministic:\n%s\n%s", baseKey, again)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		arch := base
		f := reflect.ValueOf(&arch).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		default:
			t.Fatalf("gpu.Arch.%s has kind %v: teach appendArch and this test to render it", typ.Field(i).Name, f.Kind())
		}
		if got := string(cacheKey(nil, k, arch)); got == baseKey {
			t.Errorf("perturbing gpu.Arch.%s leaves the cache key unchanged", typ.Field(i).Name)
		}
	}
}

// The memo key is built for every kernel of every request: into a
// presized buffer it allocates nothing.
func TestCacheKeyAllocBudget(t *testing.T) {
	k := randomKernel(rand.New(rand.NewSource(1)), 0)
	arch := gpu.QuadroFX5600()
	buf := make([]byte, 0, 4096)
	if got := testing.AllocsPerRun(100, func() { buf = cacheKey(buf[:0], k, arch) }); got != 0 {
		t.Errorf("cacheKey allocates %.0f per call, budget is 0", got)
	}
}
