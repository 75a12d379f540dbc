package main

// Seeded request generators. Every request is a pure function of the
// run seed and its index in the stream, so a run and its in-process
// replay see the same bytes, and the same seed gives the same stream
// on every machine.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Workload names, as passed to --workload.
const (
	wlHot   = "project-hot"
	wlFresh = "project-fresh"
	wlBatch = "batch-dag"
)

// request is one HTTP request of a stream plus what the replay needs
// to reproduce it in-process.
type request struct {
	path   string // URL path and query
	body   []byte
	stream bool // POST /batch with Accept: application/x-ndjson

	// /project inputs (src is the body).
	src     string
	seed    uint64 // 0: the daemon's default seed
	target  string // "": the daemon's default target
	backend string // "": the default backend

	// /batch inputs.
	jobs []batchJob
}

// batchJob mirrors one element of the POST /batch job array.
type batchJob struct {
	ID         string   `json:"id,omitempty"`
	DependsOn  []string `json:"dependsOn,omitempty"`
	FromParent string   `json:"fromParent,omitempty"`
	Workload   string   `json:"workload,omitempty"`
	Size       string   `json:"size,omitempty"`
	Target     string   `json:"target,omitempty"`
	Backend    string   `json:"backend,omitempty"`
	Seed       *uint64  `json:"seed,omitempty"`
	Iters      int      `json:"iters,omitempty"`
}

// rng is splitmix64: tiny, fast, and fixed forever, unlike a standard
// library generator whose stream could change between Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64, i int) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [lo, hi].
func (r *rng) intn(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

func pick[T any](r *rng, xs []T) T { return xs[r.next()%uint64(len(xs))] }

// freshSeed is request i's machine seed: distinct for every i of a
// run and far from the daemon's default seed (20130520), so every
// calibration key a fresh request asks for is new to the pool.
func freshSeed(runSeed uint64, i int) uint64 {
	return (runSeed+1)<<32 | uint64(i)
}

// hotSkeletons are the shipped single-workload skeletons project-hot
// cycles through.
var hotSkeletons = []string{"cfd", "hotspot", "srad", "stassuij"}

// Targets and backends the fresh and batch generators draw from. The
// lists are fixed so a stream does not change when the registry
// grows; a target that disappears fails the run.
var (
	freshTargets = []string{
		"fx5600-pcie1", "c1060-pcie2", "c1060-pcie2-pageable",
		"c2050-pcie3", "c2050-pcie3-x5650", "c2050-nvlink",
	}
	batchTargets = []string{"fx5600-pcie1", "c1060-pcie2", "c2050-pcie3", "c2050-nvlink"}
	backends     = []string{"analytic", "fitted", "piecewise"}
)

// namedSize is one paper workload at one of its data sets.
type namedSize struct{ workload, size string }

// namedFamilies are the paper workloads and data sets batch jobs draw
// from, one family per workload.
var namedFamilies = [][]namedSize{
	{{"CFD", "97K"}, {"CFD", "233K"}},
	{{"HotSpot", "512 x 512"}, {"HotSpot", "1024 x 1024"}},
	{{"SRAD", "1024 x 1024"}, {"SRAD", "2048 x 2048"}},
	{{"Stassuij", ""}},
}

// rank3Every makes every fourth project-fresh request a rank-3
// stencil: exactly a quarter of the stream engages the BRS op cache,
// which memoizes only sections of rank three or more.
const rank3Every = 4

// generator produces one workload's request stream.
type generator struct {
	workload string
	seed     uint64
	hot      [][]byte // shipped skeleton sources, for project-hot
}

// newGenerator loads what the workload needs from the checkout root.
func newGenerator(workload string, seed uint64, root string) (*generator, error) {
	g := &generator{workload: workload, seed: seed}
	switch workload {
	case wlHot:
		for _, name := range hotSkeletons {
			src, err := os.ReadFile(filepath.Join(root, "skeletons", name+".sk"))
			if err != nil {
				return nil, err
			}
			g.hot = append(g.hot, src)
		}
	case wlFresh, wlBatch:
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return g, nil
}

// warmup is how many requests run before timing starts: enough to
// fill the caches a workload reuses (project-hot: the transform memo;
// batch-dag: the memo for every workload x GPU pair, which the first
// request primes) and to let the daemon's heap settle.
func (g *generator) warmup() int {
	switch g.workload {
	case wlBatch:
		return 8
	default:
		return 100
	}
}

// at returns request i of the stream.
func (g *generator) at(i int) request {
	switch g.workload {
	case wlHot:
		src := g.hot[(uint64(i)+g.seed)%uint64(len(g.hot))]
		return request{path: "/project", body: src, src: string(src)}
	case wlFresh:
		return g.fresh(i)
	default:
		return g.batch(i)
	}
}

// fresh builds one project-fresh request: a generated skeleton that
// no earlier request of the run has sent, at a never-repeated seed,
// on a drawn target and backend.
func (g *generator) fresh(i int) request {
	r := newRNG(g.seed, i)
	req := request{
		seed:    freshSeed(g.seed, i),
		target:  pick(r, freshTargets),
		backend: pick(r, backends),
	}
	// u makes every kernel's first statement unique within a run (up
	// to 97*89*7 requests), so kernel contents never repeat and every
	// transform-memo lookup misses.
	u := uniq{intops: 8 + i%97, flops: 4 + (i/97)%89, transc: (i / (97 * 89)) % 7}
	var src string
	if i%rank3Every == rank3Every-1 {
		src = stencil3D(r, u)
	} else {
		switch r.intn(0, 3) {
		case 0:
			src = cfdSkeleton(r, u)
		case 1:
			src = hotspotSkeleton(r, u)
		case 2:
			src = sradSkeleton(r, u)
		default:
			src = stassuijSkeleton(r, u)
		}
	}
	req.src, req.body = src, []byte(src)
	req.path = "/project?seed=" + strconv.FormatUint(req.seed, 10) +
		"&target=" + req.target + "&backend=" + req.backend
	return req
}

// uniq is the per-request statement signature that keeps generated
// kernels distinct.
type uniq struct{ intops, flops, transc int }

func (u uniq) attrs() string {
	return fmt.Sprintf("flops=%d intops=%d transc=%d", u.flops, u.intops, u.transc)
}

func hotspotSkeleton(r *rng, u uniq) string {
	n := r.intn(256, 2048)
	return fmt.Sprintf(`workload "HotSpot" size "%[1]d x %[1]d"

array power[%[1]d][%[1]d] float32
array temp[%[1]d][%[1]d] float32
array temp_out[%[1]d][%[1]d] float32

kernel hotspot_stencil {
    parfor i in 0..%[1]d {
        parfor j in 0..%[1]d {
            stmt %[2]s { }
            stmt flops=%[3]d intops=%[4]d transc=%[5]d {
                load temp[i][j]
                load temp[i-1][j]
                load temp[i+1][j]
                load temp[i][j-1]
                load temp[i][j+1]
                load power[i][j]
                store temp_out[i][j]
            }
        }
    }
}

sequence iterations=%[6]d { hotspot_stencil }

cpu elements=%[7]d flops=%[3]d bytes=16 transc=4 irregular=0 vectorizable=false regions=1
`, n, u.attrs(), r.intn(15, 60), r.intn(50, 150), r.intn(2, 12), r.intn(1, 8), n*n)
}

func sradSkeleton(r *rng, u uniq) string {
	n := r.intn(512, 4096)
	f1, f2 := r.intn(20, 50), r.intn(15, 40)
	return fmt.Sprintf(`workload "SRAD" size "%[1]d x %[1]d"

temporary array coeff[%[1]d][%[1]d] float32
temporary array deriv[%[1]d][%[1]d] float32
array image[%[1]d][%[1]d] float32

kernel srad_prep {
    parfor i in 0..%[1]d {
        parfor j in 0..%[1]d {
            stmt %[2]s { }
            stmt flops=%[3]d intops=70 transc=6 {
                load image[i][j]
                load image[i-1][j]
                load image[i+1][j]
                load image[i][j-1]
                load image[i][j+1]
                store deriv[i][j]
                store coeff[i][j]
            }
        }
    }
}

kernel srad_update {
    parfor i in 0..%[1]d {
        parfor j in 0..%[1]d {
            stmt %[2]s { }
            stmt flops=%[4]d intops=60 transc=3 {
                load coeff[i][j]
                load coeff[i+1][j]
                load coeff[i][j+1]
                load deriv[i][j]
                load image[i][j]
                store image[i][j]
            }
        }
    }
}

sequence iterations=%[5]d { srad_prep srad_update }

cpu elements=%[6]d flops=%[7]d bytes=24 transc=6 irregular=0 vectorizable=false regions=2
`, n, u.attrs(), f1, f2, r.intn(1, 8), n*n, f1+f2)
}

func cfdSkeleton(r *rng, u uniq) string {
	n := r.intn(50_000, 300_000)
	return fmt.Sprintf(`workload "CFD" size "%[1]d"

array areas[%[1]d] float32
array elements_surrounding[%[1]d][4] int32
temporary array fluxes[%[1]d][5] float32
array normals[%[1]d][6] float32
temporary array step_factors[%[1]d] float32
array variables[%[1]d][5] float32

kernel compute_step_factor {
    parfor i in 0..%[1]d {
        stmt %[2]s { }
        stmt flops=%[3]d intops=10 transc=3 {
            load variables[i][0]
            load variables[i][1]
            load variables[i][2]
            load variables[i][3]
            load variables[i][4]
            load areas[i]
            store step_factors[i]
        }
    }
}

kernel compute_flux {
    parfor i in 0..%[1]d {
        stmt %[2]s {
            store fluxes[i][0]
            store fluxes[i][1]
            store fluxes[i][2]
            store fluxes[i][3]
            store fluxes[i][4]
        }
        for j in 0..4 {
            stmt flops=%[4]d intops=25 transc=2 {
                load elements_surrounding[i][j]
                load normals[i][j]
                load normals[i][j+2]
                load variables[?][0]
                load variables[?][1]
                load variables[?][2]
                load variables[?][3]
                load variables[?][4]
            }
        }
    }
}

kernel time_step {
    parfor i in 0..%[1]d {
        stmt %[2]s { }
        for v in 0..5 {
            stmt flops=%[5]d intops=4 {
                load step_factors[i]
                load fluxes[i][v]
                load variables[i][v]
                store variables[i][v]
            }
        }
    }
}

sequence iterations=%[6]d { compute_step_factor compute_flux time_step }

cpu elements=%[1]d flops=%[7]d bytes=120 transc=11 irregular=0.6 vectorizable=false regions=3
`, n, u.attrs(), r.intn(15, 40), r.intn(60, 120), r.intn(4, 10), r.intn(1, 8), r.intn(300, 700))
}

func stassuijSkeleton(r *rng, u uniq) string {
	rows, cols, nnz := r.intn(64, 256), r.intn(512, 4096), r.intn(8, 24)
	return fmt.Sprintf(`workload "Stassuij" size "%[1]dx%[1]d x %[1]dx%[2]d"

sparse array csr_cols[%[3]d] int32
sparse array csr_rowptr[%[4]d] int32
sparse array csr_vals[%[3]d] float64
array x[%[1]d][%[2]d] complex128
array y[%[1]d][%[2]d] complex128

kernel spmm {
    parfor r in 0..%[1]d {
        parfor c in 0..%[2]d {
            stmt %[5]s {
                load csr_rowptr[r]
                load y[r][c]
                store y[r][c]
            }
            for k in 0..%[6]d {
                stmt flops=%[7]d intops=8 transc=3 {
                    load csr_vals[k]
                    load csr_cols[k]
                    load x[?][c]
                }
            }
        }
    }
}

sequence iterations=%[8]d { spmm }

cpu elements=%[9]d flops=%[10]d bytes=32 transc=0 irregular=0.3 vectorizable=false regions=1
`, rows, cols, rows*nnz, rows+1, u.attrs(), nnz, r.intn(8, 16), r.intn(1, 8), rows*cols, r.intn(80, 180))
}

// stencil3D is the rank-3 template: a two-kernel 7-point heat step
// on an n^3 grid, whose sections are rank 3.
func stencil3D(r *rng, u uniq) string {
	n := r.intn(32, 192)
	f1, f2 := r.intn(8, 20), r.intn(2, 6)
	return fmt.Sprintf(`workload "Heat3D" size "%[1]d^3"

array u[%[1]d][%[1]d][%[1]d] float32
array src[%[1]d][%[1]d][%[1]d] float32
temporary array nxt[%[1]d][%[1]d][%[1]d] float32

kernel heat_step {
    parfor k in 0..%[1]d {
        parfor j in 0..%[1]d {
            parfor i in 0..%[1]d {
                stmt %[2]s { }
                stmt flops=%[3]d intops=20 {
                    load u[k][j][i]
                    load u[k-1][j][i]
                    load u[k+1][j][i]
                    load u[k][j-1][i]
                    load u[k][j+1][i]
                    load u[k][j][i-1]
                    load u[k][j][i+1]
                    load src[k][j][i]
                    store nxt[k][j][i]
                }
            }
        }
    }
}

kernel heat_update {
    parfor k in 0..%[1]d {
        parfor j in 0..%[1]d {
            parfor i in 0..%[1]d {
                stmt %[2]s { }
                stmt flops=%[4]d intops=6 {
                    load nxt[k][j][i]
                    load u[k][j][i]
                    store u[k][j][i]
                }
            }
        }
    }
}

sequence iterations=%[5]d { heat_step heat_update }

cpu elements=%[6]d flops=%[7]d bytes=40 transc=0 irregular=0 vectorizable=true regions=2
`, n, u.attrs(), f1, f2, r.intn(1, 8), n*n*n, f1+f2)
}

// batch builds one batch-dag request. Request 0 is a priming batch:
// one edge-free job per (named workload, batch target) pair, so the
// transform memo holds every kernel x GPU pair before the timed
// window. Every other request is a 16-job DAG: three paper workloads
// x two targets x two backends, then four fromParent children.
func (g *generator) batch(i int) request {
	r := newRNG(g.seed, i)
	seed := freshSeed(g.seed, i)
	var jobs []batchJob
	if i == 0 {
		for _, fam := range namedFamilies {
			for _, ns := range fam {
				for _, t := range batchTargets {
					jobs = append(jobs, batchJob{Workload: ns.workload, Size: ns.size, Target: t, Seed: &seed})
				}
			}
		}
	} else {
		jobs = dagJobs(r, seed)
	}
	body, err := json.Marshal(jobs)
	if err != nil {
		panic(err) // a fixed struct shape always marshals
	}
	return request{path: "/batch", body: body, stream: true, seed: seed, jobs: jobs}
}

// dagJobs is the 16-job DAG: matrix jobs m-<w><t><b>, then children
// c-0 (bestTarget over workload 0), c-1 (bestBackend over workload
// 1), c-2 (bestTarget over c-0 and c-1: a selector chain), and c-3
// (bestBackend over workload 2).
func dagJobs(r *rng, seed uint64) []batchJob {
	var wls [3]namedSize // three of CFD, HotSpot, SRAD, Stassuij
	for k, f := range permutation(r, len(namedFamilies))[:3] {
		wls[k] = pick(r, namedFamilies[f])
	}
	tp := permutation(r, len(batchTargets))
	ts := [2]string{batchTargets[tp[0]], batchTargets[tp[1]]}
	bp := permutation(r, len(backends))
	bs := [2]string{backends[bp[0]], backends[bp[1]]}

	jobs := make([]batchJob, 0, 16)
	ids := make([][]string, 3)
	for w := range wls {
		for t := range ts {
			for b := range bs {
				id := fmt.Sprintf("m-%d%d%d", w, t, b)
				ids[w] = append(ids[w], id)
				jobs = append(jobs, batchJob{ID: id, Workload: wls[w].workload, Size: wls[w].size,
					Target: ts[t], Backend: bs[b], Seed: &seed})
			}
		}
	}
	child := func(id string, deps []string, sel string, w int, tgt, be string) batchJob {
		return batchJob{ID: id, DependsOn: deps, FromParent: sel, Workload: wls[w].workload,
			Size: wls[w].size, Target: tgt, Backend: be, Seed: &seed, Iters: r.intn(2, 20)}
	}
	jobs = append(jobs,
		child("c-0", ids[0], "bestTarget", 0, "", bs[0]),
		child("c-1", ids[1], "bestBackend", 1, ts[1], ""),
		child("c-2", []string{"c-0", "c-1"}, "bestTarget", 2, "", bs[1]),
		child("c-3", ids[2], "bestBackend", 2, ts[0], ""),
	)
	return jobs
}

// permutation returns a seeded permutation of 0..n-1.
func permutation(r *rng, n int) []int {
	p := make([]int, n)
	for k := range p {
		p[k] = k
	}
	for k := n - 1; k > 0; k-- {
		j := int(r.next() % uint64(k+1))
		p[k], p[j] = p[j], p[k]
	}
	return p
}

// describe renders a request for error messages.
func (q request) describe() string {
	if q.jobs != nil {
		return fmt.Sprintf("POST %s (%d jobs, seed %d)", q.path, len(q.jobs), q.seed)
	}
	first, _, _ := strings.Cut(q.src, "\n")
	return fmt.Sprintf("POST %s [%s]", q.path, first)
}
