package main

// The benchmark's definition: workloads and metrics, from which
// BENCHMARK.json at the repository root is generated
// (`grobench -manifest > BENCHMARK.json`); manifest_test.go keeps the
// committed file in sync.

import (
	"bytes"
	"encoding/json"
)

// runSeconds is the length of one measured window.
const runSeconds = 15

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wlHot, "4 shipped skeletons at the daemon defaults: 100% pool and transform-memo hits, so parse, warm stages, encode, flight and the handler dominate"},
	{wlFresh, "never-repeated skeletons, seeds, targets and backends: 0% pool and memo hits, 25% rank-3 stencils engage the BRS op cache; the cold paths"},
	{wlBatch, "16-job NDJSON DAG, one fresh seed per request: 4 calibrations + 12 pool hits (75%), 100% memo hits, no parsing; the control for parse work"},
}

type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEndDefs = []endToEndDef{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ms_per_projection", "ms", "lower", 0.25},
	{"allocs_per_projection", "count", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var perLayerDefs = []perLayerDef{
	{"sklang.parse_us", "us/req", "lower"},
	{"sklang.parse_allocs", "allocs/call", "lower"},
	{"engine.hit_ratio", "ratio", "higher"},
	{"engine.hit_us", "us/call", "lower"},
	{"engine.miss_us.analytic", "us/call", "lower"},
	{"engine.miss_us.fitted", "us/call", "lower"},
	{"engine.miss_us.piecewise", "us/call", "lower"},
	{"engine.evictions", "count", "lower"},
	{"core.validate_us", "us/req", "lower"},
	{"core.datausage_us", "us/req", "lower"},
	{"core.datausage_allocs", "allocs/call", "lower"},
	{"core.kernels_us", "us/req", "lower"},
	{"core.kernels_allocs", "allocs/call", "lower"},
	{"core.transfers_us", "us/req", "lower"},
	{"core.transfers_allocs", "allocs/call", "lower"},
	{"core.cpu_us", "us/req", "lower"},
	{"core.cpu_allocs", "allocs/call", "lower"},
	{"core.assemble_us", "us/req", "lower"},
	{"core.assemble_allocs", "allocs/call", "lower"},
	{"transform.memo_hit_ratio", "ratio", "higher"},
	{"brs.opcache_hit_ratio", "ratio", "higher"},
	{"report.encode_us", "us/req", "lower"},
	{"report.encode_allocs", "allocs/call", "lower"},
	{"report.bytes", "B/call", "lower"},
	{"flight.record_us", "us/req", "lower"},
	{"flight.record_allocs", "allocs/call", "lower"},
	{"dag.build_us", "us/req", "lower"},
	{"dag.cal_wait_us", "us/req", "lower"},
	{"dag.worker_busy_ratio", "ratio", "higher"},
	{"replay.request_us", "us/req", "lower"},
	{"daemon.unattributed_us", "us/req", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []endToEndDef `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "grobench/run.sh"},
		Paths:      []string{"grobench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(doc)
	return buf.Bytes(), err
}
