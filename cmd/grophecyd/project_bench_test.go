package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	req := httptest.NewRequest(http.MethodPost, "/project", strings.NewReader(src))
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
