// Command grobench is the repository's end-to-end benchmark: it drives
// a real grophecyd over loopback with one seeded workload, checks every
// response byte for byte against an in-process replay of the same
// request stream, and prints the end-to-end metrics (or, with --trace
// 1, the per-layer metrics of a traced replay) as one JSON line.
//
//	bash grobench/run.sh --workload project-hot --seed 1 --seconds 12 --trace 0
//
// run.sh builds grophecyd and this command from the checkout, then
// runs it from the checkout root. See grobench/README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupStarts is how many times an untraced run starts the daemon to
// measure setup_s; the median is reported and the last start serves
// the workload.
const setupStarts = 21

// attrShare bounds the replay time no layer span covers: the glue in
// a request or job span, outside every layer call, must stay below
// this share of the span's time.
const attrShare = 0.05

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // checkout root
	daemon   string // grophecyd binary
	out      string // scratch directory for logs and spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg      config
		traced   int
		printMan = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.StringVar(&cfg.workload, "workload", wlHot, "workload: "+wlHot+", "+wlFresh+" or "+wlBatch)
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "length of the measured window in seconds")
	flag.IntVar(&traced, "trace", 0, "1: print the per-layer metrics of a traced replay instead of the end-to-end metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.daemon, "daemon", "", "grophecyd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/runs", "directory for daemon logs and span files")
	flag.Parse()
	if *printMan {
		doc, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	}
	cfg.trace = traced == 1
	if cfg.daemon == "" || cfg.seconds < 1 || traced < 0 || traced > 1 {
		fatal(errors.New("need -daemon, --seconds >= 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grobench:", err)
	os.Exit(1)
}

// run measures one workload: daemon setup, a warm-up, the measured
// window, then the replay that checks every response.
func run(ctx context.Context, cfg config) (result, error) {
	g, err := newGenerator(cfg.workload, cfg.seed, cfg.root)
	if err != nil {
		return result{}, err
	}
	logPath := filepath.Join(cfg.out, "grophecyd-"+cfg.workload+".log")
	starts := setupStarts
	if cfg.trace {
		starts = 1
	}
	var d *daemon
	// Set-up is measured as the daemon's CPU time to readiness: wall
	// time to readiness is reported too, but on a shared virtual machine
	// it swings with the host's contention (see README.md).
	var setups, setupCPU []float64
	for k := 0; k < starts; k++ {
		if d, err = startDaemon(cfg.daemon, logPath); err != nil {
			return result{}, err
		}
		setups = append(setups, d.setup.Seconds())
		setupCPU = append(setupCPU, d.setupCPU.Seconds())
		if k < starts-1 {
			if err := d.stop(); err != nil {
				return result{}, err
			}
		}
	}
	live := true
	defer func() {
		if live {
			d.kill()
		}
	}()

	c := newClient()
	warm := g.warmup()
	warmResp, _, err := drive(ctx, c, d.base, g, 0, warm, 0)
	if err != nil {
		return result{}, err
	}
	before, err := d.scrape(ctx, c)
	if err != nil {
		return result{}, err
	}
	mallocs0, err := d.mallocs(ctx, c)
	if err != nil {
		return result{}, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return result{}, err
	}
	timed, elapsed, err := drive(ctx, c, d.base, g, warm, 0, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return result{}, err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return result{}, err
	}
	mallocs1, err := d.mallocs(ctx, c)
	if err != nil {
		return result{}, err
	}
	after, err := d.scrape(ctx, c)
	if err != nil {
		return result{}, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return result{}, err
	}
	live = false
	if err := d.stop(); err != nil {
		return result{}, fmt.Errorf("stopping grophecyd: %w", err)
	}
	c.CloseIdleConnections()

	// The reference replay: untraced, so its per-request times are the
	// baseline for daemon.unattributed_us and trace.overhead_pct.
	all := append(warmResp, timed...)
	_, refs, times, replayCounts, err := replay(ctx, g, warm, len(all), modePlain)
	if err != nil {
		return result{}, err
	}

	rep := &checks{failed: map[int]bool{}}
	projections := 0
	for i, resp := range all {
		n, problem := checkResponse(g.at(i), resp, refs[i])
		if problem != "" {
			rep.fail(i, problem)
		} else if i >= warm {
			projections += n
		}
	}
	if cfg.workload == wlHot {
		checkGolden(rep, cfg.root, g, all)
	}
	daemonCounts := delta(before, after)
	for _, name := range fidelityCounters {
		if daemonCounts[name] != replayCounts[name] {
			rep.problem(fmt.Sprintf("replay fidelity: %s is %d in the daemon, %d in the replay",
				name, daemonCounts[name], replayCounts[name]))
		}
	}

	lat := make([]float64, len(timed))
	for i, r := range timed {
		lat[i] = float64(r.latency) / 1e6
	}
	sort.Float64s(lat)
	res := result{Attempted: len(all), Failed: len(rep.failed), Metrics: map[string]metric{}}
	fmt.Fprintf(os.Stderr, "grobench: %s seed %d: %d warm-up + %d measured requests in %.2fs, %d projections\n",
		cfg.workload, cfg.seed, warm, len(timed), elapsed.Seconds(), projections)
	fmt.Fprintf(os.Stderr, "grobench: daemon cache counters over the window: %v\n", formatCounters(daemonCounts))
	fmt.Fprintf(os.Stderr, "grobench: set-up wall time to /readyz: median %.4f s over %d starts\n", median(setups), len(setups))
	// The wall-clock figures a user sees. They carry no bound: on a
	// shared virtual machine the host's contention moves them by up to
	// 2x between runs of the same code (see README.md).
	fmt.Fprintf(os.Stderr, "grobench: latency_p50_ms %.4f  latency_p99_ms %.4f (of %d samples)  projections_per_s %.2f  fail_ratio %.6f\n",
		quantile(lat, 0.5), quantile(lat, 0.99), len(lat), float64(projections)/elapsed.Seconds(),
		float64(len(rep.failed))/float64(len(all)))
	if len(lat) < 1000 {
		fmt.Fprintf(os.Stderr, "grobench: only %d latency samples: fewer than 10 lie beyond p99\n", len(lat))
	}

	if !cfg.trace {
		perProj := func(v float64) float64 {
			if projections == 0 {
				return 0
			}
			return v / float64(projections)
		}
		set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }
		set("setup_s", median(setupCPU))
		set("cpu_ms_per_projection", perProj(float64(cpu1-cpu0)/1e6))
		set("allocs_per_projection", perProj(float64(mallocs1-mallocs0)))
		set("peak_rss_mb", float64(rss)/(1<<20))
	} else {
		layers, err := traceLayers(ctx, cfg, g, warm, len(all), refs, times, replayCounts, quantile(lat, 0.5)*1e3, rep)
		if err != nil {
			return result{}, err
		}
		res.Metrics = layers
	}
	res.Correct = rep.ok()
	rep.print()
	printMetrics(res.Metrics)
	return res, nil
}

// checks collects correctness failures: per-request failures count in
// fail_ratio; run-level problems (fidelity, attribution) only clear
// "correct".
type checks struct {
	failed   map[int]bool // request indices
	requests []string     // what failed, per request
	problems []string     // run-level problems
}

func (c *checks) fail(i int, msg string) {
	c.failed[i] = true
	c.requests = append(c.requests, fmt.Sprintf("request %d: %s", i, msg))
}

func (c *checks) problem(msg string) { c.problems = append(c.problems, msg) }

func (c *checks) ok() bool { return len(c.requests)+len(c.problems) == 0 }

// print reports every run-level problem and the first ten request
// failures.
func (c *checks) print() {
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "grobench: FAIL", p)
	}
	for i, p := range c.requests {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "grobench: ... %d more failed requests\n", len(c.requests)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "grobench: FAIL", p)
	}
	if c.ok() {
		fmt.Fprintln(os.Stderr, "grobench: reference, golden, replay-fidelity and attribution checks passed")
	}
}

// rowMeta is the metadata half of one NDJSON /batch row.
type rowMeta struct {
	Index    int    `json:"index"`
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Target   string `json:"target"`
	Backend  string `json:"backend"`
	Seed     uint64 `json:"seed"`
	Status   int    `json:"status"`
	Error    string `json:"error"`
}

// checkResponse compares one response with the replay's reference and
// returns the projections it delivered, or what is wrong with it.
func checkResponse(q request, resp response, ref reqRef) (int, string) {
	if resp.status/100 != 2 {
		return 0, fmt.Sprintf("%s: status %d", q.describe(), resp.status)
	}
	if q.jobs == nil {
		if resp.hash != ref.hash {
			return 0, q.describe() + ": body differs from the replay's report"
		}
		return 1, ""
	}
	if len(resp.rows) != len(q.jobs) {
		return 0, fmt.Sprintf("%s: %d rows for %d jobs", q.describe(), len(resp.rows), len(q.jobs))
	}
	for k, row := range resp.rows {
		j := ref.order[k]
		want := ref.jobs[j]
		var m rowMeta
		if err := json.Unmarshal(row.meta, &m); err != nil {
			return 0, fmt.Sprintf("%s: row %d: %v", q.describe(), k, err)
		}
		got := fmt.Sprintf("index %d %s/%s/%s seed %d status %d %s", m.Index, m.Workload, m.Target, m.Backend, m.Seed, m.Status, m.Error)
		exp := fmt.Sprintf("index %d %s/%s/%s seed %d status 200 ", j, want.workload, want.target, want.backend, want.seed)
		if got != exp || m.ID != q.jobs[j].ID {
			return 0, fmt.Sprintf("%s: row %d is %q (id %q), want %q (id %q)", q.describe(), k, got, m.ID, exp, q.jobs[j].ID)
		}
		if !row.report || row.hash != want.hash {
			return 0, fmt.Sprintf("%s: row %d (job %s) report differs from the replay's compacted /project bytes", q.describe(), k, m.ID)
		}
	}
	if want := fmt.Sprintf(`{"succeeded":%d,"failed":0,"skipped":0}`, len(q.jobs)); string(resp.summary) != want {
		// Edge-free batches carry no skipped count.
		if alt := fmt.Sprintf(`{"succeeded":%d,"failed":0}`, len(q.jobs)); string(resp.summary) != alt {
			return 0, fmt.Sprintf("%s: summary %q, want %q", q.describe(), resp.summary, want)
		}
	}
	return len(q.jobs), ""
}

// checkGolden asserts that every default-key HotSpot response equals
// the committed golden report, apart from the file's trailing newline.
func checkGolden(rep *checks, root string, g *generator, all []response) {
	golden, err := os.ReadFile(filepath.Join(root, "internal", "golden", "testdata", "golden", "hotspot.json"))
	if err != nil {
		rep.problem("golden: " + err.Error())
		return
	}
	want := sha256.Sum256(bytes.TrimSuffix(golden, []byte("\n")))
	seen := 0
	for i, resp := range all {
		if !strings.HasPrefix(g.at(i).src, `workload "HotSpot"`) {
			continue
		}
		seen++
		if resp.hash != want {
			rep.fail(i, "HotSpot response differs from golden hotspot.json")
		}
	}
	if seen == 0 {
		rep.problem("golden: no HotSpot request in the stream")
	}
}

func unitOf(name string) string {
	for _, m := range endToEndDefs {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range perLayerDefs {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("unknown metric " + name)
}

func formatCounters(c counters) string {
	var b strings.Builder
	for _, n := range fidelityCounters {
		fmt.Fprintf(&b, " %s=%d", strings.TrimSuffix(n, "_total"), c[n])
	}
	return strings.TrimSpace(b.String())
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(float64(len(sorted))*q+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}
