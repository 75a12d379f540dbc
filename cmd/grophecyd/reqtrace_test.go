// Request-telemetry end-to-end tests: trace-context propagation,
// per-stage wall spans, the canonical wide event, exemplars, SLO
// surfacing, and the OTLP file sink — all through the wired handler.
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"grophecy/internal/metrics"
	"grophecy/internal/telemetry"
)

const inboundTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// otlpSpans flattens an OTLP/JSON document into (traceID, name) rows.
func otlpSpans(t *testing.T, data []byte) (traceID string, names []string) {
	t.Helper()
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
					Name    string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("walltrace is not OTLP/JSON: %v", err)
	}
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				traceID = sp.TraceID
				names = append(names, sp.Name)
			}
		}
	}
	return traceID, names
}

// TestTraceparentPropagation is the tentpole end-to-end check: an
// inbound W3C traceparent is adopted (same trace ID on the echoed
// header and the stored wall trace), and the trace carries the
// admission wait, the calibration spans, and all five engine stages.
func TestTraceparentPropagation(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	req, err := http.NewRequest("POST", srv.URL+"/project", strings.NewReader(hotspotSource(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(telemetry.TraceparentHeader, inboundTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	echo := resp.Header.Get(telemetry.TraceparentHeader)
	sc, err := telemetry.ParseTraceparent(echo)
	if err != nil {
		t.Fatalf("echoed traceparent %q: %v", echo, err)
	}
	wantTrace := "4bf92f3577b34da6a3ce929d0e0e4736"
	if sc.TraceID.String() != wantTrace {
		t.Fatalf("echoed trace ID %s, want the inbound %s", sc.TraceID, wantTrace)
	}
	if sc.SpanID.String() == "00f067aa0ba902b7" {
		t.Fatal("echo returned the caller's span ID instead of the daemon's server span")
	}

	runID := resp.Header.Get("X-Run-Id")
	if runID == "" {
		t.Fatal("no X-Run-Id response header")
	}
	wtResp, err := http.Get(srv.URL + "/runs/" + runID + "/walltrace")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, wtResp)
	if wtResp.StatusCode != http.StatusOK {
		t.Fatalf("walltrace status %d: %s", wtResp.StatusCode, body)
	}
	traceID, names := otlpSpans(t, body)
	if traceID != wantTrace {
		t.Fatalf("walltrace trace ID %s, want %s", traceID, wantTrace)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"queue.wait",
		"stage.datausage", "stage.kernels", "stage.transfers", "stage.cpu", "stage.assemble"} {
		if !have[want] {
			t.Errorf("walltrace missing span %q (have %v)", want, names)
		}
	}
	if !have["cal.compute"] && !have["cal.cache_hit"] && !have["cal.wait"] {
		t.Errorf("walltrace has no calibration span (have %v)", names)
	}
}

// infoRecords parses the test daemon's JSON log. startDaemon's logger
// is at Info level, so every record it holds is Info or higher.
func infoRecords(t *testing.T, logs *syncWriter) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("log line is not JSON: %v", err)
		}
		out = append(out, doc)
	}
	return out
}

// TestWideEvent: every request emits exactly one Info-or-higher log
// record, the canonical "request" wide event, carrying the trace ID,
// tenant, outcome, per-stage milliseconds, and the projection's
// outcome fields. The response body is read to EOF before the log is:
// the wide event is logged before ServeHTTP returns, and the final
// bytes of the response go out only after it returns.
func TestWideEvent(t *testing.T) {
	srv, _, logs := startDaemon(t, daemonConfig{})
	logs.Reset()
	req, err := http.NewRequest("POST", srv.URL+"/project", strings.NewReader(hotspotSource(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "tenant-secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	recs := infoRecords(t, logs)
	if len(recs) != 1 || recs[0]["msg"] != "request" {
		t.Fatalf("POST /project wrote %d Info-or-higher records, want exactly one wide event: %v", len(recs), recs)
	}
	wide := recs[0]
	for _, key := range []string{"trace_id", "tenant", "status", "duration_ms",
		"run", "workload", "seed", "queue_depth", "speedup_full", "degradations",
		"ms.queue.wait", "ms.stage.kernels", "ms.stage.assemble"} {
		if _, ok := wide[key]; !ok {
			t.Errorf("wide event missing %q: %v", key, wide)
		}
	}
	if wide["tenant"] == "anon" || wide["tenant"] == "tenant-secret" {
		t.Errorf("tenant %q: want a fingerprint, not anon or the raw key", wide["tenant"])
	}
	if wide["status"] != float64(http.StatusOK) {
		t.Errorf("wide event status %v", wide["status"])
	}

	logs.Reset()
	resp, _ = post(t, srv.URL+"/batch",
		`[{"workload":"HotSpot","size":"1024 x 1024"},{"workload":"CFD","size":"233K"}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %d", resp.StatusCode)
	}
	recs = infoRecords(t, logs)
	if len(recs) != 1 || recs[0]["msg"] != "request" {
		t.Fatalf("two-job POST /batch wrote %d Info-or-higher records, want exactly one wide event: %v", len(recs), recs)
	}
	for _, key := range []string{"jobs", "succeeded", "streamed", "cache_hits", "cache_misses"} {
		if _, ok := recs[0][key]; !ok {
			t.Errorf("batch wide event missing %q: %v", key, recs[0])
		}
	}
}

// TestExemplarLinksHistogramToTrace: the request latency histogram
// exposes the served request's trace ID as an OpenMetrics exemplar.
func TestExemplarLinksHistogramToTrace(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	resp, _ := post(t, srv.URL+"/project", hotspotSource(t))
	echo, err := telemetry.ParseTraceparent(resp.Header.Get(telemetry.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	// The registry is process-global and other tests observe into the
	// same histogram, so the last request's trace ID must appear on
	// *some* bucket — the one its latency landed in — rather than on
	// the first exemplared bucket of the dump.
	dump := metrics.Default.Dump()
	re := regexp.MustCompile(`grophecyd_request_seconds_bucket\{le="[^"]+"\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)
	ms := re.FindAllStringSubmatch(dump, -1)
	if len(ms) == 0 {
		t.Fatal("no exemplared grophecyd_request_seconds bucket in the metrics dump")
	}
	found := false
	for _, m := range ms {
		if m[1] == echo.TraceID.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("no bucket carries the last request's trace %s (exemplars: %v)", echo.TraceID, ms)
	}
}

// TestStatuszRenders: the live status page carries every section an
// operator reaches for — state, admission, cache, SLO burn rates,
// and the recent-run table with its trace IDs.
func TestStatuszRenders(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	resp, _ := post(t, srv.URL+"/project", hotspotSource(t))
	runID := resp.Header.Get("X-Run-Id")

	sresp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page := string(readAll(t, sresp))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status %d", sresp.StatusCode)
	}
	for _, want := range []string{"uptime", "READY", "admission", "calibration cache",
		"SLO burn rates", "availability", "latency", "recent runs", runID, "trace "} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q:\n%s", want, page)
		}
	}
}

// TestSheddingStillTelemetered: a shed request (429) gets a wide
// event and counts against the availability SLO's traffic, without a
// run or stage spans.
func TestSheddingStillTelemetered(t *testing.T) {
	srv, s, logs := startDaemon(t, daemonConfig{MaxInflight: 1, MaxQueue: 0})
	s.testBlock = make(chan struct{})
	src := hotspotSource(t)
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := http.Post(srv.URL+"/project", "text/plain", strings.NewReader(src))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "first request admitted", func() bool { return s.admit.inflightCount() == 1 })

	resp, _ := post(t, srv.URL+"/project", src)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	s.testBlock <- struct{}{} // release the held request
	<-first

	shed := false
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var doc map[string]any
		if json.Unmarshal([]byte(line), &doc) == nil &&
			doc["msg"] == "request" && doc["shed"] == true {
			shed = true
			if doc["status"] != float64(http.StatusTooManyRequests) {
				t.Errorf("shed wide event status %v", doc["status"])
			}
		}
	}
	if !shed {
		t.Fatal("no wide event for the shed request")
	}
}

// TestBatchRowsCarryRunIDs: every batch row exposes its own run ID,
// and each run's walltrace endpoint serves the request trace.
func TestBatchRowsCarryRunIDs(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	body := `[{"workload":"HotSpot","size":"512 x 512"},{"workload":"SRAD","size":"1024 x 1024"}]`
	resp, data := post(t, srv.URL+"/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Jobs []struct {
			RunID string `json:"runId"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("%d rows, want 2", len(out.Jobs))
	}
	seen := map[string]bool{}
	for i, row := range out.Jobs {
		if row.RunID == "" {
			t.Fatalf("row %d has no runId: %s", i, data)
		}
		if seen[row.RunID] {
			t.Fatalf("duplicate runId %s", row.RunID)
		}
		seen[row.RunID] = true
		wt, err := http.Get(srv.URL + "/runs/" + row.RunID + "/walltrace")
		if err != nil {
			t.Fatal(err)
		}
		wtBody := readAll(t, wt)
		if wt.StatusCode != http.StatusOK {
			t.Fatalf("row %d walltrace status %d", i, wt.StatusCode)
		}
		if tid, _ := otlpSpans(t, wtBody); tid == "" {
			t.Fatalf("row %d walltrace has no spans", i)
		}
	}
}

// TestOTLPFileSink: with -otlp-file configured, each served request
// appends one OTLP/JSON line whose trace ID matches the response's
// traceparent echo.
func TestOTLPFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.ndjson")
	srv, s, _ := startDaemon(t, daemonConfig{OTLPFile: path})
	resp, _ := post(t, srv.URL+"/project", hotspotSource(t))
	echo, err := telemetry.ParseTraceparent(resp.Header.Get(telemetry.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	s.closeSinks()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d OTLP lines, want 1", len(lines))
	}
	if tid, names := otlpSpans(t, []byte(lines[0])); tid != echo.TraceID.String() || len(names) == 0 {
		t.Fatalf("sink line trace %s (%d spans), want %s", tid, len(names), echo.TraceID)
	}
}
