// Package sklang implements the skeleton description language: the
// textual format in which GROPHECY++ users author code skeletons
// (paper §II-C — "The input to GROPHECY is a simplified description
// of the corresponding CPU code, referred to as a code skeleton").
//
// A skeleton file declares one workload: its arrays, kernels (single
// loop nests with statements of accesses and instruction counts), the
// offloaded kernel sequence, and the CPU baseline description. The
// example below is a complete 5-point stencil:
//
//	# blur: a 5-point stencil over a 2048x2048 image
//	workload "Blur" size "2048 x 2048"
//
//	array in[2048][2048] float32
//	array out[2048][2048] float32
//
//	kernel blur5 {
//	    parfor i in 0..2048 {
//	        parfor j in 0..2048 {
//	            stmt flops=5 intops=12 {
//	                load in[i][j]
//	                load in[i-1][j]
//	                load in[i+1][j]
//	                load in[i][j-1]
//	                load in[i][j+1]
//	                store out[i][j]
//	            }
//	        }
//	    }
//	}
//
//	sequence iterations=1 { blur5 }
//
//	cpu elements=4194304 flops=5 bytes=8 vectorizable=true regions=1
//
// Language notes:
//
//   - '#' comments to end of line; whitespace is free-form.
//   - arrays take 'temporary' and/or 'sparse' modifiers before the
//     'array' keyword, matching the hints of paper §III-B.
//   - 'parfor' declares a data-parallel loop, 'for' a sequential one;
//     a kernel is a single loop nest (each body nests at most one
//     loop), and parallel loops must enclose sequential ones.
//   - statements may appear at any nesting level; a statement outside
//     the innermost loop executes once per iteration of the loops
//     that enclose it (register accumulators, prologue loads).
//   - index expressions are affine (i, i-1, 2*j+1, 16*i+j) or '?' for
//     data-dependent (irregular) indices.
package sklang

import (
	"fmt"
	"os"

	"grophecy/internal/core"
	"grophecy/internal/metrics"
)

// Parser instruments.
var (
	mParses = metrics.Default.MustCounter("sklang_parses_total",
		"skeleton sources parsed")
	mParseErrors = metrics.Default.MustCounter("sklang_parse_errors_total",
		"skeleton sources rejected by the lexer or parser")
	mKernelsParsed = metrics.Default.MustCounter("sklang_kernels_parsed_total",
		"kernels accepted across all parses")
)

// Parse parses skeleton source text into a workload. Errors carry
// line:column positions.
func Parse(src string) (core.Workload, error) {
	mParses.Inc()
	toks, err := lexAll(src)
	if err != nil {
		mParseErrors.Inc()
		return core.Workload{}, err
	}
	p := newParser(toks)
	w, err := p.parseFile()
	if err != nil {
		mParseErrors.Inc()
		return core.Workload{}, err
	}
	if w.Seq != nil {
		mKernelsParsed.Add(int64(len(w.Seq.Kernels)))
	}
	return w, nil
}

// ParseFile reads and parses a skeleton file.
func ParseFile(path string) (core.Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Workload{}, fmt.Errorf("sklang: %w", err)
	}
	w, err := Parse(string(data))
	if err != nil {
		return core.Workload{}, fmt.Errorf("%s:%w", path, err)
	}
	return w, nil
}
