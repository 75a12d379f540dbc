package main

// The closed-loop client: one connection, each request sent only after
// the previous response has been read in full.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"time"
)

// row is one NDJSON row of a /batch response: its metadata (the row
// without its report) and the hash of its compact report.
type row struct {
	meta   []byte
	hash   [32]byte
	report bool
}

// response is what the client keeps of one response.
type response struct {
	status  int
	latency time.Duration
	hash    [32]byte // /project: sha256 of the whole body
	rows    []row    // /batch: one per job, in arrival order
	summary []byte   // /batch: the final summary line
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// send issues one request and reads the whole body. Only the wire
// time counts as latency; hashing and row splitting come after.
func send(ctx context.Context, c *http.Client, base string, q request, buf *bytes.Buffer) (response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+q.path, bytes.NewReader(q.body))
	if err != nil {
		return response{}, err
	}
	if q.stream {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
	} else {
		req.Header.Set("Content-Type", "text/plain")
	}
	buf.Reset()
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return response{}, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out := response{status: resp.StatusCode, latency: time.Since(start)}
	if err != nil {
		return out, err
	}
	if !q.stream {
		out.hash = sha256.Sum256(buf.Bytes())
		return out, nil
	}
	out.rows, out.summary = splitRows(buf.Bytes())
	return out, nil
}

// reportKey separates a row's metadata from its spliced report.
var reportKey = []byte(`,"report":`)

// splitRows splits an NDJSON /batch body into job rows and the final
// summary line, hashing each row's report.
func splitRows(body []byte) ([]row, []byte) {
	var rows []row
	var last []byte
	for len(body) > 0 {
		line, rest, _ := bytes.Cut(body, []byte{'\n'})
		body = rest
		if last != nil {
			rows = append(rows, rowOf(last))
		}
		last = line
	}
	return rows, append([]byte(nil), last...)
}

func rowOf(line []byte) row {
	k := bytes.Index(line, reportKey)
	if k < 0 || line[len(line)-1] != '}' {
		return row{meta: append([]byte(nil), line...)}
	}
	meta := make([]byte, 0, k+1)
	meta = append(append(meta, line[:k]...), '}')
	return row{meta: meta, hash: sha256.Sum256(line[k+len(reportKey) : len(line)-1]), report: true}
}

// drive sends requests from index from on: count of them when window
// is zero, otherwise as many as start within the window. It returns
// every response and the time from the first send to the last
// completed response.
func drive(ctx context.Context, c *http.Client, base string, g *generator, from, count int, window time.Duration) ([]response, time.Duration, error) {
	var buf bytes.Buffer
	var out []response
	t0 := time.Now()
	for i := from; ; i++ {
		if window == 0 && i == from+count || window > 0 && time.Since(t0) >= window {
			return out, time.Since(t0), nil
		}
		q := g.at(i)
		resp, err := send(ctx, c, base, q, &buf)
		if err != nil {
			return nil, 0, fmt.Errorf("request %d, %s: %w", i, q.describe(), err)
		}
		out = append(out, resp)
	}
}
