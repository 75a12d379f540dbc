package sklang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the lexer and parser with arbitrary input: the
// property is simply "never panic, always return either a workload or
// a positioned error". The seed corpus includes the shipped skeleton
// files plus syntax shards that reach every parser production.
func FuzzParse(f *testing.F) {
	for _, name := range []string{"blur.sk", "spmm.sk", "pipeline.sk"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, s := range fuzzParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		w, err := Parse(src)
		if err != nil {
			return // positioned error: fine
		}
		// Anything accepted must be a valid workload that the writer
		// can round-trip.
		if err := w.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid workload: %v", err)
		}
		out, err := Format(w)
		if err != nil {
			t.Fatalf("accepted workload does not format: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n%s", err, out)
		}
	})
}

// fuzzParseSeeds are syntax shards that reach every parser production.
var fuzzParseSeeds = []string{
	"",
	"#",
	`workload "W" size "s"`,
	"array a[1] float32",
	"temporary sparse array z[9] complex128",
	"kernel k { parfor i in 0..4 { stmt flops=1 { load a[i] } } }",
	"kernel k { for s in 0..4 step 2 { } }",
	"sequence iterations=3 { k }",
	"cpu elements=1 flops=0.5 vectorizable=true",
	"load a[2*i-1+j]",
	"load a[?]",
	"0..", "..", "\"", "a[", "stmt {", "}}}}",
	"array a[999999999999999999999] float32",
	"parfor parfor parfor",
	"phase { run k cpu_reads a cpu_writes b }",
	"phase iterations=2 { }",
}
