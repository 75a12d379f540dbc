package main

// The daemon under test: a real grophecyd process on a loopback port,
// plus what the benchmark reads from outside it — readiness, /metrics
// counters, and /proc CPU and memory figures.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
	// setup is exec to the first /readyz 200, in wall time and in the
	// daemon's CPU time.
	setup, setupCPU time.Duration
}

// startDaemon execs grophecyd on a free loopback port with its shipped
// defaults, stderr (the request log) going to logPath, and returns once
// /readyz answers 200.
func startDaemon(bin, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	// The daemon's one stdout line names its address.
	line, err := bufio.NewReader(out).ReadString('\n')
	go func() {
		io.Copy(io.Discard, out) // drain to EOF so Wait can return
		d.done <- cmd.Wait()
	}()
	const prefix = "grophecyd: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.kill()
		return nil, fmt.Errorf("grophecyd did not announce its address (got %q, %v); see %s", line, err, logPath)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))

	poll := &http.Client{Timeout: time.Second}
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := poll.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(t0)
				if d.setupCPU, err = d.threadCPU(); err != nil {
					d.kill()
					return nil, err
				}
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("grophecyd not ready after 30s; see %s", logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the graceful drain; a daemon that
// does not exit within ten seconds is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.kill()
		return errors.New("grophecyd did not exit within 10s of SIGTERM")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// cpu returns the daemon's user+sys CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// threadCPU returns the daemon's CPU time so far at nanosecond
// resolution: the sum over its threads of /proc/<pid>/task/<tid>/schedstat.
func (d *daemon) threadCPU() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSS returns the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the daemon's /metrics counters.
func (d *daemon) scrape(ctx context.Context, c *http.Client) (counters, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseCounters(string(body)), nil
}

// mallocs returns the daemon's cumulative heap allocation count, from
// the runtime.MemStats trailer of its heap profile.
func (d *daemon) mallocs(ctx context.Context, c *http.Client) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("GET /debug/pprof/heap: %s, no Mallocs line", resp.Status)
}

// fidelityCounters are the cache counters the replay must reproduce
// exactly for the same request stream.
var fidelityCounters = []string{
	"engine_cache_hits_total", "engine_cache_misses_total", "engine_cache_evictions_total",
	"transform_cache_hits_total", "transform_cache_misses_total", "transform_cache_evictions_total",
	"brs_cache_hits_total", "brs_cache_misses_total", "brs_cache_evictions_total",
}

// counters maps an unlabelled Prometheus sample name to its value.
type counters map[string]int64

// parseCounters reads the unlabelled integer samples of a Prometheus
// text exposition — the daemon's /metrics and the replay's own
// metrics.Default dump use the same format.
func parseCounters(text string) counters {
	out := counters{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseInt(strings.Fields(val)[0], 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// delta returns after-before for the fidelity counters.
func delta(before, after counters) counters {
	out := counters{}
	for _, n := range fidelityCounters {
		out[n] = after[n] - before[n]
	}
	return out
}
