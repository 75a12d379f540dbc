package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/batch/dag"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
)

// streamLen is how many requests of each stream the tests inspect.
const streamLen = 400

func newGen(t *testing.T, workload string, seed uint64) *generator {
	t.Helper()
	g, err := newGenerator(workload, seed, "..")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, wl := range []string{wlHot, wlFresh, wlBatch} {
		a, b, other := newGen(t, wl, 7), newGen(t, wl, 7), newGen(t, wl, 8)
		differs := false
		for i := 0; i < streamLen; i++ {
			qa, qb, qo := a.at(i), b.at(i), other.at(i)
			if qa.path != qb.path || !bytes.Equal(qa.body, qb.body) {
				t.Fatalf("%s request %d differs between two generators with seed 7", wl, i)
			}
			differs = differs || qa.path != qo.path || !bytes.Equal(qa.body, qo.body)
		}
		if !differs && wl != wlHot {
			t.Errorf("%s: seeds 7 and 8 generate the same stream", wl)
		}
	}
}

func TestHotStreamCyclesShippedSkeletons(t *testing.T) {
	g := newGen(t, wlHot, 3)
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		q := g.at(i)
		if q.path != "/project" {
			t.Fatalf("request %d path %q: project-hot must use the daemon defaults", i, q.path)
		}
		if _, err := sklang.Parse(q.src); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		seen[q.src] = true
	}
	if len(seen) != len(hotSkeletons) {
		t.Errorf("8 requests cover %d distinct skeletons, want %d", len(seen), len(hotSkeletons))
	}
}

func TestFreshInputsValidAndNeverRepeat(t *testing.T) {
	g := newGen(t, wlFresh, 5)
	kernels := map[string]int{}
	seeds := map[uint64]bool{}
	rank3 := 0
	for i := 0; i < streamLen; i++ {
		q := g.at(i)
		wl, err := sklang.Parse(q.src)
		if err != nil {
			t.Fatalf("request %d does not parse: %v\n%s", i, err, q.src)
		}
		if err := wl.Validate(); err != nil {
			t.Fatalf("request %d is not a valid workload: %v", i, err)
		}
		if _, err := target.Lookup(q.target); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := backend.Get(q.backend); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if seeds[q.seed] || q.seed == daemonSeed {
			t.Fatalf("request %d repeats seed %d", i, q.seed)
		}
		seeds[q.seed] = true
		for _, k := range wl.Seq.Kernels {
			key := string(k.AppendCanonical(nil))
			if prev, ok := kernels[key]; ok {
				t.Fatalf("request %d kernel %s repeats a kernel of request %d", i, k.Name, prev)
			}
			kernels[key] = i
		}
		if strings.HasPrefix(q.src, `workload "Heat3D"`) {
			rank3++
			for _, line := range strings.Split(q.src, "\n") {
				if strings.Contains(line, "array ") && strings.Count(line, "[") != 3 {
					t.Fatalf("request %d: rank-3 template declares %q", i, line)
				}
			}
		}
	}
	if rank3*rank3Every != streamLen {
		t.Errorf("%d of %d requests are rank-3 stencils, want one in %d", rank3, streamLen, rank3Every)
	}
}

func TestBatchInputsValid(t *testing.T) {
	g := newGen(t, wlBatch, 9)
	for i := 0; i < streamLen/4; i++ {
		q := g.at(i)
		if !q.stream || q.path != "/batch" {
			t.Fatalf("request %d: %s is not a streamed batch", i, q.describe())
		}
		if i > 0 && len(q.jobs) != 16 {
			t.Fatalf("request %d has %d jobs, want 16", i, len(q.jobs))
		}
		nodes := make([]dag.Node, len(q.jobs))
		for k, j := range q.jobs {
			nodes[k] = dag.Node{ID: j.ID, DependsOn: j.DependsOn}
			if _, err := resolveJob(j); err != nil {
				t.Fatalf("request %d job %d: %v", i, k, err)
			}
			if *j.Seed != q.seed {
				t.Fatalf("request %d job %d: seed %d, want the request's %d", i, k, *j.Seed, q.seed)
			}
			switch j.FromParent {
			case "":
			case "bestTarget", "bestBackend":
				if len(j.DependsOn) == 0 ||
					j.FromParent == "bestTarget" && j.Target != "" ||
					j.FromParent == "bestBackend" && j.Backend != "" {
					t.Fatalf("request %d job %s: selector %s conflicts with its fields", i, j.ID, j.FromParent)
				}
			default:
				t.Fatalf("request %d job %s: unknown selector %q", i, j.ID, j.FromParent)
			}
		}
		gr, err := dag.Build(nodes)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if i > 0 && gr.Depth() != 3 {
			t.Errorf("request %d: DAG depth %d, want 3", i, gr.Depth())
		}
	}
}

// TestReplayPassesAgree replays a short stream of each workload plain
// and traced: both passes must produce the same bytes and counters.
func TestReplayPassesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("projects real workloads")
	}
	ctx := context.Background()
	for _, wl := range []string{wlHot, wlFresh, wlBatch} {
		g := newGen(t, wl, 2)
		warm, n := 2, 6
		_, plain, _, pc, err := replay(ctx, g, warm, n, modePlain)
		if err != nil {
			t.Fatal(err)
		}
		traced, spans, _, tc, err := replay(ctx, g, warm, n, modeSpans)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain {
			if !sameRef(plain[i], spans[i]) {
				t.Fatalf("%s request %d: traced replay differs", wl, i)
			}
		}
		for _, c := range fidelityCounters {
			if pc[c] != tc[c] {
				t.Errorf("%s %s: plain %d, traced %d", wl, c, pc[c], tc[c])
			}
		}
		if len(traced.tr.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", wl)
		}
	}
}

func TestManifestMatchesCommittedFile(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: (cd grobench && go run . -manifest) > BENCHMARK.json")
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 12}, {Start: 20, End: 25}, {Start: 21, End: 22}}
	if got := covered(spans, []int{0, 1, 2, 3}); got != 17 {
		t.Errorf("covered = %v, want 17", got)
	}
}

func TestParseCounters(t *testing.T) {
	c := parseCounters("# HELP x y\n# TYPE x counter\nx 42\nh_bucket{le=\"1\"} 3\ng 1.5\n")
	if c["x"] != 42 || len(c) != 1 {
		t.Errorf("parseCounters = %v, want just x=42", c)
	}
}
