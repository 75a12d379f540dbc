package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"grophecy/internal/experiments"
)

// hotSkeletons are the shipped skeletons a warm daemon cycles through.
var hotSkeletons = []string{"cfd", "hotspot", "srad", "stassuij"}

// hotDaemon wires a server at the default seed, runs the startup
// calibration, and warms the pool and transform memo with 100 hot
// requests. It returns the server and the skeleton bodies it serves.
func hotDaemon(tb testing.TB) (*server, []string) {
	tb.Helper()
	s, err := newServer(daemonConfig{Seed: experiments.DefaultSeed})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.calibrate(context.Background()); err != nil {
		tb.Fatalf("startup calibration: %v", err)
	}
	srcs := make([]string, len(hotSkeletons))
	for i, name := range hotSkeletons {
		data, err := os.ReadFile(filepath.Join("..", "..", "skeletons", name+".sk"))
		if err != nil {
			tb.Fatal(err)
		}
		srcs[i] = string(data)
	}
	for i := 0; i < 100; i++ {
		serveProject(tb, s, srcs[i%len(srcs)])
	}
	return s, srcs
}

// serveProject sends one POST /project through the route table and
// fails unless it succeeds.
func serveProject(tb testing.TB, s *server, src string) {
	serveProjectAt(tb, s, "/project", src)
}

// serveProjectAt is serveProject with a query string.
func serveProjectAt(tb testing.TB, s *server, target, src string) {
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(src))
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST /project: %d %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkDaemonProject measures one warm POST /project in process,
// from request to recorded response, cycling the shipped skeletons.
func BenchmarkDaemonProject(b *testing.B) {
	s, srcs := hotDaemon(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveProject(b, s, srcs[i%len(srcs)])
	}
}

// TestDaemonProjectAllocBudget is the allocation ratchet on the warm
// projection path: a hot POST /project, parse to recorded response,
// stays within 350 allocations. Lower the budget when the path gets
// leaner; raising it needs a reason.
func TestDaemonProjectAllocBudget(t *testing.T) {
	s, srcs := hotDaemon(t)
	i := 0
	got := testing.AllocsPerRun(200, func() {
		serveProject(t, s, srcs[i%len(srcs)])
		i++
	})
	if got > 350 {
		t.Fatalf("hot POST /project allocates %.0f per request, budget is 350", got)
	}
	t.Logf("hot POST /project: %.0f allocs per request", got)
}

// freshTargets and freshBackends are what a fresh daemon request
// cycles through: one target per GPU preset plus a pageable one, and
// every backend.
var (
	freshTargets  = []string{"fx5600-pcie1", "c1060-pcie2-pageable", "c2050-pcie3"}
	freshBackends = []string{"analytic", "fitted", "piecewise"}
)

// freshDaemon is hotDaemon's cold twin: a server after its startup
// calibration, and a request generator whose i-th request no earlier
// one repeats. Request i projects a shipped skeleton whose every
// statement's flop count carries the prefix i+1, at seed i+1, cycling
// the targets and backends, so both the calibration pool and the
// transform memo miss. One request per target and backend runs first
// (at seeds the generator never uses), so the fitted backend's
// per-architecture suite is built before anything is measured.
func freshDaemon(tb testing.TB) (s *server, serve func(i int)) {
	tb.Helper()
	s, srcs := hotDaemon(tb)
	serve = func(i int) {
		src := strings.ReplaceAll(srcs[i%len(srcs)], "stmt flops=", "stmt flops="+strconv.Itoa(i+1))
		url := "/project?seed=" + strconv.Itoa(i+1) +
			"&target=" + freshTargets[i%len(freshTargets)] +
			"&backend=" + freshBackends[(i/len(freshTargets))%len(freshBackends)]
		serveProjectAt(tb, s, url, src)
	}
	for i, tgt := range freshTargets {
		for j, bk := range freshBackends {
			url := "/project?seed=" + strconv.Itoa(1<<30+i*len(freshBackends)+j) + "&target=" + tgt + "&backend=" + bk
			serveProjectAt(tb, s, url, srcs[0])
		}
	}
	return s, serve
}

// BenchmarkDaemonProjectFresh measures one never-seen POST /project in
// process: a new seed, target and backend key calibrates, and a new
// skeleton misses the transform memo.
func BenchmarkDaemonProjectFresh(b *testing.B) {
	_, serve := freshDaemon(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}

// TestDaemonProjectFreshAllocBudget is the allocation ratchet on the
// cold projection path, the twin of TestDaemonProjectAllocBudget:
// a POST /project that misses both the calibration pool and the
// transform memo stays within 420 allocations (measured 381; 556
// while every calibration rebuilt the fitted suite and every variant
// was named with Sprintf). Lower the budget when the path gets leaner;
// raising it needs a reason.
func TestDaemonProjectFreshAllocBudget(t *testing.T) {
	_, serve := freshDaemon(t)
	i := 0
	got := testing.AllocsPerRun(90, func() {
		serve(i)
		i++
	})
	if got > 420 {
		t.Fatalf("fresh POST /project allocates %.0f per request, budget is 420", got)
	}
	t.Logf("fresh POST /project: %.0f allocs per request", got)
}
