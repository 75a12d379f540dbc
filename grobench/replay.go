package main

// The in-process replay: the same seeded request stream, driven
// through each layer's public functions in the order grophecyd's
// handlers call them, with a fresh pool, recorder and caches that
// start where a freshly started daemon's do. It produces the reference
// bytes every daemon response is checked against, the cache counters
// the daemon's /metrics must match, and — with spans on — the
// per-layer self times.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"grophecy/internal/backend"
	"grophecy/internal/batch/dag"
	"grophecy/internal/bench"
	"grophecy/internal/brs"
	"grophecy/internal/core"
	"grophecy/internal/engine"
	"grophecy/internal/experiments"
	"grophecy/internal/flight"
	"grophecy/internal/metrics"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
	"grophecy/internal/telemetry"
	"grophecy/internal/trace"
	"grophecy/internal/transform"
)

// Daemon defaults the replay mirrors: grophecyd's -flight default and
// its default seed; the pool uses engine defaults, as the daemon does
// with -cache-entries 0.
const (
	daemonFlightCap = 64
	daemonSeed      = experiments.DefaultSeed
)

// stageSpans names the spans around core.DefaultStages(), in order.
var stageSpans = []string{"core.datausage", "core.kernels", "core.transfers", "core.cpu", "core.assemble"}

// replayMode selects what a replay pass records on top of the
// reference bytes and counters.
type replayMode int

const (
	modePlain  replayMode = iota // per-request totals only
	modeSpans                    // a span around every layer call
	modeAllocs                   // heap allocations per leaf layer call
)

// allocEvery samples one request in this many for allocation counts:
// each sample stops the world twice per layer call.
const allocEvery = 8

// jobRef is the replay's outcome for one batch job.
type jobRef struct {
	workload, target, backend string
	seed                      uint64
	speedup                   float64
	report                    []byte   // report.JSON bytes, until hashed
	hash                      [32]byte // sha256 of the compacted report
	err                       error
}

// reqRef is the replay's reference for one request.
type reqRef struct {
	hash  [32]byte // /project: sha256 of the body
	jobs  []jobRef // /batch, by job index
	order []int    // /batch emission order
}

// replayer holds one pass's state.
type replayer struct {
	ctx     context.Context
	pool    *engine.Pool
	rec     *flight.Recorder
	tgt     target.Target
	stages  []core.Stage
	tr      *spanLog // nil in modePlain
	allocs  *allocLog
	workers int
	runs    int // run IDs handed to the recorder
	mu      sync.Mutex
}

// newReplayer resets the process-wide caches and builds the state a
// freshly started daemon has once /readyz flips: an engine pool with
// the default key calibrated by the startup probe and an empty flight
// recorder.
func newReplayer(ctx context.Context, mode replayMode) (*replayer, error) {
	transform.ResetCache()
	brs.ResetCache()
	tgt, err := target.Lookup("")
	if err != nil {
		return nil, err
	}
	r := &replayer{
		ctx:    ctx,
		pool:   engine.NewPoolWith(engine.Config{}),
		rec:    flight.MustNew(daemonFlightCap),
		tgt:    tgt,
		stages: core.DefaultStages(),
	}
	switch mode {
	case modeSpans:
		r.tr = newSpanLog()
	case modeAllocs:
		r.allocs = newAllocLog()
		r.workers = 1 // allocation deltas are process-wide
	}
	if _, err := r.pool.Projector(ctx, tgt, backend.DefaultName, daemonSeed, tgt.Memory); err != nil {
		return nil, fmt.Errorf("replay startup calibration: %w", err)
	}
	return r, nil
}

// replay runs requests [0, n) of g, returning each one's reference,
// the per-request wall time of the timed requests [warm, n), and the
// fidelity counter deltas over them.
func replay(ctx context.Context, g *generator, warm, n int, mode replayMode) (*replayer, []reqRef, []time.Duration, counters, error) {
	r, err := newReplayer(ctx, mode)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	refs := make([]reqRef, n)
	times := make([]time.Duration, 0, n-warm)
	var before counters
	for i := 0; i < n; i++ {
		if i == warm {
			before = parseCounters(metrics.Default.Dump())
		}
		if r.allocs != nil {
			r.allocs.sample = i >= warm && i%allocEvery == 0
		}
		q := g.at(i)
		var body []byte
		start := time.Now()
		if q.jobs != nil {
			refs[i], err = r.batch(i, q)
		} else {
			body, err = r.project(i, q)
		}
		if i >= warm {
			times = append(times, time.Since(start))
		}
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("replay of request %d, %s: %w", i, q.describe(), err)
		}
		// Keep hashes, not bytes: a run replays thousands of reports.
		if q.jobs == nil {
			refs[i].hash = sha256.Sum256(body)
		}
		for k := range refs[i].jobs {
			j := &refs[i].jobs[k]
			if j.hash, err = compactHash(j.report); err != nil {
				return nil, nil, nil, nil, err
			}
			j.report = nil
		}
	}
	return r, refs, times, delta(before, parseCounters(metrics.Default.Dump())), nil
}

func (r *replayer) nextRunID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return "run-" + strconv.Itoa(r.runs)
}

// project mirrors POST /project: parse, calibrate-or-hit, the five
// stages, flight record, JSON encode.
func (r *replayer) project(i int, q request) ([]byte, error) {
	root := r.tr.begin(i, -1, spanRequest)
	defer r.tr.end(root)

	sp, a := r.tr.begin(i, root, "sklang.parse"), r.allocs.begin()
	wl, err := sklang.Parse(q.src)
	r.allocs.end(a, "sklang.parse")
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	tgt := r.tgt
	if q.target != "" {
		if tgt, err = target.Lookup(q.target); err != nil {
			return nil, err
		}
	}
	seed := uint64(daemonSeed)
	if q.seed != 0 {
		seed = q.seed
	}
	be := backend.DefaultName
	if q.backend != "" {
		be = q.backend
	}
	rep, err := r.run(i, root, tgt, be, seed, wl, q.src, "", nil)
	if err != nil {
		return nil, err
	}
	return r.encode(i, root, rep)
}

// run mirrors the shared run lifecycle of a /project request and a
// /batch job: simulated-time tracer, pool projector, stages, flight
// record.
func (r *replayer) run(i, parent int, tgt target.Target, be string, seed uint64, wl core.Workload,
	src, jobID string, deps []string) (core.Report, error) {
	tracer := trace.New("grophecyd")
	ctx := trace.With(r.ctx, tracer)
	entry := flight.Entry{
		ID: r.nextRunID(), Workload: wl.Name, DataSize: wl.DataSize, Source: src,
		Seed: seed, JobID: jobID, DependsOn: deps, Start: time.Now(),
	}
	p, err := r.projector(ctx, i, parent, tgt, be, seed)
	var rep core.Report
	if err == nil {
		rep, err = r.evaluate(ctx, i, parent, p, wl)
	}
	tracer.Close()
	entry.Trace = tracer
	entry.Duration = time.Since(entry.Start)
	if err != nil {
		entry.Err = err.Error()
	} else {
		entry.Report = rep
	}
	sp, a := r.tr.begin(i, parent, "flight.record"), r.allocs.begin()
	r.rec.Add(entry)
	r.allocs.end(a, "flight.record")
	r.tr.end(sp)
	return rep, err
}

// projector asks the pool for a projector. With spans on, a private
// wall-clock tracer tells which path the pool took — cal.cache_hit,
// cal.wait on another job's flight, or cal.compute — and the span is
// named after it.
func (r *replayer) projector(ctx context.Context, i, parent int, tgt target.Target, be string, seed uint64) (*core.Projector, error) {
	if r.tr == nil {
		return r.pool.Projector(ctx, tgt, be, seed, tgt.Memory)
	}
	sp := r.tr.begin(i, parent, spanEngineHit)
	wall := telemetry.New("grobench")
	p, err := r.pool.Projector(telemetry.With(ctx, wall), tgt, be, seed, tgt.Memory)
	name := spanEngineHit
	wall.Walk(func(s *telemetry.Span, _ int) {
		switch s.Name() {
		case "cal.compute":
			name = spanEngineMiss + be
		case "cal.wait":
			name = spanEngineWait
		}
	})
	r.tr.finish(sp, name, 0)
	return p, err
}

// evaluate mirrors core.Engine.Evaluate: validate, open the simulated
// "evaluate" span, run each default stage.
func (r *replayer) evaluate(ctx context.Context, i, parent int, p *core.Projector, wl core.Workload) (core.Report, error) {
	sp := r.tr.begin(i, parent, "core.validate")
	err := wl.Validate()
	r.tr.end(sp)
	if err != nil {
		return core.Report{}, err
	}
	ctx, span := trace.Start(ctx, "evaluate",
		trace.String("workload", wl.Name),
		trace.String("size", wl.DataSize),
		trace.Int("iterations", int64(wl.Seq.Iterations)))
	defer span.End()
	st := &core.EvalState{Projector: p, Workload: wl}
	for k, stage := range r.stages {
		sp, a := r.tr.begin(i, parent, stageSpans[k]), r.allocs.begin()
		err := stage.Run(ctx, st)
		r.allocs.end(a, stageSpans[k])
		r.tr.end(sp)
		if err != nil {
			return core.Report{}, err
		}
	}
	return st.Report, nil
}

func (r *replayer) encode(i, parent int, rep core.Report) ([]byte, error) {
	sp, a := r.tr.begin(i, parent, "report.encode"), r.allocs.begin()
	data, err := report.JSON(rep)
	r.allocs.end(a, "report.encode")
	r.tr.finish(sp, "", len(data))
	return data, err
}

// resolved is one batch job ready to run.
type resolved struct {
	job batchJob
	wl  core.Workload
	tgt target.Target
	be  string
}

// batch mirrors POST /batch: build the DAG, resolve every job, run
// the graph on the daemon's worker count with fromParent selectors
// applied at dispatch.
func (r *replayer) batch(i int, q request) (reqRef, error) {
	root := r.tr.begin(i, -1, spanRequest)
	defer r.tr.end(root)

	sp := r.tr.begin(i, root, "dag.build")
	nodes := make([]dag.Node, len(q.jobs))
	for k, j := range q.jobs {
		nodes[k] = dag.Node{ID: j.ID, DependsOn: j.DependsOn}
	}
	g, err := dag.Build(nodes)
	r.tr.end(sp)
	if err != nil {
		return reqRef{}, err
	}

	sp = r.tr.begin(i, root, "bench.resolve")
	jobs := make([]resolved, len(q.jobs))
	for k, j := range q.jobs {
		if jobs[k], err = resolveJob(j); err != nil {
			r.tr.end(sp)
			return reqRef{}, fmt.Errorf("job %d: %w", k, err)
		}
	}
	r.tr.end(sp)

	ref := reqRef{jobs: make([]jobRef, len(jobs))}
	run := r.tr.begin(i, root, spanDagRun)
	g.Run(r.ctx, r.workers, dag.Hooks{
		Run: func(k int) error {
			js := r.tr.begin(i, run, spanJob)
			defer r.tr.end(js)
			rj := jobs[k]
			if rj.job.FromParent != "" {
				best := bestParent(g.Parents(k), ref.jobs)
				switch rj.job.FromParent {
				case "bestTarget":
					t, err := target.Lookup(ref.jobs[best].target)
					if err != nil {
						return err
					}
					rj.tgt = t
				case "bestBackend":
					rj.be = ref.jobs[best].backend
				}
			}
			out := jobRef{workload: rj.wl.Name, target: rj.tgt.Name, backend: rj.be, seed: *rj.job.Seed}
			rep, err := r.run(i, js, rj.tgt, rj.be, out.seed, rj.wl, "", rj.job.ID, rj.job.DependsOn)
			if err == nil {
				out.speedup = rep.SpeedupFull()
				out.report, err = r.encode(i, js, rep)
			}
			out.err = err
			ref.jobs[k] = out
			return err
		},
		Done: func(k int, err error) {
			if err != nil && ref.jobs[k].err == nil {
				ref.jobs[k].err = err
			}
		},
		Skip: func(k, parent int) {
			ref.jobs[k].err = fmt.Errorf("dependency %s did not succeed", g.Describe(parent))
		},
		Emit: func(k int) { ref.order = append(ref.order, k) },
	})
	r.tr.end(run)
	for k, j := range ref.jobs {
		if j.err != nil {
			return reqRef{}, fmt.Errorf("job %d: %w", k, j.err)
		}
	}
	return ref, nil
}

// resolveJob mirrors the daemon's per-job resolution for the job
// shapes the generator emits: a named paper workload, optional
// target, backend and iteration override.
func resolveJob(j batchJob) (resolved, error) {
	out := resolved{job: j, be: backend.DefaultName}
	var err error
	if out.tgt, err = target.Lookup(j.Target); err != nil {
		return out, err
	}
	if j.Backend != "" {
		b, err := backend.Get(j.Backend)
		if err != nil {
			return out, err
		}
		out.be = b.Name()
	}
	switch j.Workload {
	case "CFD":
		out.wl, err = bench.CFD(j.Size)
	case "HotSpot":
		out.wl, err = bench.HotSpot(j.Size)
	case "SRAD":
		out.wl, err = bench.SRAD(j.Size)
	case "Stassuij":
		out.wl = bench.Stassuij()
	default:
		err = fmt.Errorf("unknown workload %q", j.Workload)
	}
	if err == nil && j.Iters != 0 {
		out.wl = out.wl.WithIterations(j.Iters)
	}
	return out, err
}

// bestParent is the fromParent winner rule grophecyd documents: the
// parent with the highest finite full speedup, ties to the earliest.
func bestParent(parents []int, jobs []jobRef) int {
	best := parents[0]
	for _, p := range parents[1:] {
		v, b := jobs[p].speedup, jobs[best].speedup
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if math.IsInf(b, 0) || math.IsNaN(b) || v > b {
			best = p
		}
	}
	return best
}

// compactHash is the hash an NDJSON row's report must have: the
// replay's report bytes, compacted onto one line.
func compactHash(report []byte) ([32]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, report); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// Span names the metrics read back.
const (
	spanRequest    = "request"
	spanJob        = "job"
	spanDagRun     = "dag.run"
	spanEngineHit  = "engine.hit"
	spanEngineWait = "engine.wait"
	spanEngineMiss = "engine.miss."
)

// span is one recorded layer call. Times are nanoseconds since the
// log's epoch.
type span struct {
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index into the log, -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// spanLog keeps every span in memory; a nil log records nothing.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (l *spanLog) begin(req, parent int, name string) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Req: req, Parent: parent, Name: name, Start: now})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.finish(id, "", 0) }

// finish ends a span, renaming it when name is not empty and recording
// the bytes it produced.
func (l *spanLog) finish(id int, name string, n int) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id]
	s.End = now
	s.Bytes = n
	if name != "" {
		s.Name = name
	}
}

// allocLog sums heap allocations per leaf layer over the sampled
// requests; a nil log records nothing.
type allocLog struct {
	sample bool
	calls  map[string]int64
	allocs map[string]uint64
	ms     runtime.MemStats
}

func newAllocLog() *allocLog {
	return &allocLog{calls: map[string]int64{}, allocs: map[string]uint64{}}
}

// begin returns the cumulative allocation count, or 0 when this
// request is not sampled.
func (l *allocLog) begin() uint64 {
	if l == nil || !l.sample {
		return 0
	}
	runtime.ReadMemStats(&l.ms)
	return l.ms.Mallocs
}

func (l *allocLog) end(start uint64, layer string) {
	if l == nil || !l.sample {
		return
	}
	runtime.ReadMemStats(&l.ms)
	l.calls[layer]++
	l.allocs[layer] += l.ms.Mallocs - start
}

// perCall returns the mean allocations per sampled call of a layer.
func (l *allocLog) perCall(layer string) float64 {
	if l.calls[layer] == 0 {
		return 0
	}
	return float64(l.allocs[layer]) / float64(l.calls[layer])
}
