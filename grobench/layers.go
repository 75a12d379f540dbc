package main

// Per-layer metrics from the traced replay passes.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// traceLayers runs the traced replay (spans on) and the allocation
// replay over the same stream, checks both against the reference
// pass, and returns every per-layer metric.
func traceLayers(ctx context.Context, cfg config, g *generator, warm, n int, refs []reqRef,
	plain []time.Duration, counts counters, daemonP50US float64, rep *checks) (map[string]metric, error) {
	traced, trefs, _, tcounts, err := replay(ctx, g, warm, n, modeSpans)
	if err != nil {
		return nil, err
	}
	for i := range refs {
		if !sameRef(refs[i], trefs[i]) {
			rep.problem(fmt.Sprintf("traced replay: request %d differs from the untraced replay", i))
			break
		}
	}
	for _, name := range fidelityCounters {
		if tcounts[name] != counts[name] {
			rep.problem(fmt.Sprintf("traced replay: %s is %d, untraced %d", name, tcounts[name], counts[name]))
		}
	}
	alloc, _, _, _, err := replay(ctx, g, warm, n, modeAllocs)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)), traced.tr.spans); err != nil {
		return nil, err
	}

	timedReqs := float64(n - warm)
	self, dur, calls, bytesOut := selfTimes(traced.tr.spans, warm)
	perReq := func(layer string) float64 { return self[layer] / 1e3 / timedReqs }
	perCall := func(layer string) float64 {
		if calls[layer] == 0 {
			return 0
		}
		return dur[layer] / 1e3 / float64(calls[layer])
	}
	ratio := func(hit, miss string) float64 {
		if counts[hit]+counts[miss] == 0 {
			return 0
		}
		return float64(counts[hit]) / float64(counts[hit]+counts[miss])
	}

	// Medians, not means: on a shared virtual machine the means are
	// set by a few requests the hypervisor stalled.
	plainUS := make([]float64, len(plain))
	for k, t := range plain {
		plainUS[k] = float64(t) / 1e3
	}
	var tracedUS []float64
	for _, s := range traced.tr.spans {
		if s.Parent < 0 && s.Req >= warm {
			tracedUS = append(tracedUS, float64(s.End-s.Start)/1e3)
		}
	}
	plainP50, tracedP50 := median(plainUS), median(tracedUS)

	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{v, unitOf(name)} }
	set("sklang.parse_us", perReq("sklang.parse"))
	set("sklang.parse_allocs", alloc.allocs.perCall("sklang.parse"))
	set("engine.hit_ratio", ratio("engine_cache_hits_total", "engine_cache_misses_total"))
	set("engine.hit_us", perCall(spanEngineHit))
	for _, be := range backends {
		set("engine.miss_us."+be, perCall(spanEngineMiss+be))
	}
	set("engine.evictions", float64(counts["engine_cache_evictions_total"]))
	set("core.validate_us", perReq("core.validate"))
	for _, s := range stageSpans {
		set(s+"_us", perReq(s))
		set(s+"_allocs", alloc.allocs.perCall(s))
	}
	set("transform.memo_hit_ratio", ratio("transform_cache_hits_total", "transform_cache_misses_total"))
	set("brs.opcache_hit_ratio", ratio("brs_cache_hits_total", "brs_cache_misses_total"))
	set("report.encode_us", perReq("report.encode"))
	set("report.encode_allocs", alloc.allocs.perCall("report.encode"))
	if calls["report.encode"] > 0 {
		set("report.bytes", float64(bytesOut["report.encode"])/float64(calls["report.encode"]))
	} else {
		set("report.bytes", 0)
	}
	set("flight.record_us", perReq("flight.record"))
	set("flight.record_allocs", alloc.allocs.perCall("flight.record"))
	set("dag.build_us", perReq("dag.build"))
	set("dag.cal_wait_us", dur[spanEngineWait]/1e3/timedReqs)
	if dur[spanDagRun] > 0 {
		set("dag.worker_busy_ratio", dur[spanJob]/(dur[spanDagRun]*float64(runtime.GOMAXPROCS(0))))
	} else {
		set("dag.worker_busy_ratio", 0)
	}
	set("replay.request_us", plainP50)
	set("daemon.unattributed_us", daemonP50US-plainP50)
	set("trace.overhead_pct", (tracedP50-plainP50)/plainP50*100)

	// Attribution: inside every request and job span, the layer spans
	// must cover all but attrShare of the time.
	for _, container := range []string{spanRequest, spanJob} {
		if dur[container] == 0 {
			continue
		}
		share := self[container] / dur[container]
		fmt.Fprintf(os.Stderr, "grobench: attribution: %.2f%% of %s time lies outside every layer span (bound %.0f%%)\n",
			share*100, container, attrShare*100)
		if share > attrShare {
			rep.problem(fmt.Sprintf("attribution: %.2f%% of %s time is unattributed, over the %.0f%% bound",
				share*100, container, attrShare*100))
		}
	}
	return out, nil
}

// sameRef reports whether two replay passes produced the same bytes.
func sameRef(a, b reqRef) bool {
	if a.hash != b.hash || len(a.jobs) != len(b.jobs) {
		return false
	}
	for k := range a.jobs {
		if a.jobs[k].hash != b.jobs[k].hash {
			return false
		}
	}
	return true
}

// selfTimes sums, per span name over the requests from warm on, each
// span's self time (its duration minus the union of its children's
// intervals), its duration, its call count, and its byte count.
func selfTimes(spans []span, warm int) (self, dur map[string]float64, calls map[string]int, bytesOut map[string]int) {
	self, dur = map[string]float64{}, map[string]float64{}
	calls, bytesOut = map[string]int{}, map[string]int{}
	children := make([][]int, len(spans))
	for k, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], k)
		}
	}
	for k, s := range spans {
		if s.Req < warm {
			continue
		}
		d := float64(s.End - s.Start)
		dur[s.Name] += d
		calls[s.Name]++
		bytesOut[s.Name] += s.Bytes
		self[s.Name] += d - covered(spans, children[k])
	}
	return self, dur, calls, bytesOut
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span, ids []int) float64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ids))
	for k, id := range ids {
		iv[k] = [2]int64{spans[id].Start, spans[id].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, lo, hi int64 = 0, iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return float64(total + hi - lo)
}

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
