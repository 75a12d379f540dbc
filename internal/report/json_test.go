package report

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"grophecy/internal/backend"
	"grophecy/internal/brs"
	"grophecy/internal/core"
	"grophecy/internal/datausage"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/skeleton"
	"grophecy/internal/sklang"
	"grophecy/internal/xfermodel"
)

// oracleDerived and oracleReport are the reflective encoding this
// package used before the direct encoder: the report embedded in a
// wrapper that adds the derived figures, run through
// json.MarshalIndent. They are kept as the oracle the encoder must
// match byte for byte. The derived figures are passed in rather than
// computed, so that the non-finite check can substitute them.
type oracleDerived struct {
	MeasuredSpeedup     float64 `json:"measuredSpeedup"`
	SpeedupFull         float64 `json:"speedupFull"`
	SpeedupKernelOnly   float64 `json:"speedupKernelOnly"`
	SpeedupTransferOnly float64 `json:"speedupTransferOnly"`
	ErrFull             float64 `json:"errFull"`
	ErrKernelOnly       float64 `json:"errKernelOnly"`
	PercentTransfer     float64 `json:"percentTransfer"`
}

type oracleReport struct {
	core.Report
	Derived oracleDerived `json:"derived"`
}

func derivedOf(r core.Report) oracleDerived {
	return oracleDerived{
		MeasuredSpeedup:     r.MeasuredSpeedup(),
		SpeedupFull:         r.SpeedupFull(),
		SpeedupKernelOnly:   r.SpeedupKernelOnly(),
		SpeedupTransferOnly: r.SpeedupTransferOnly(),
		ErrFull:             r.ErrFull(),
		ErrKernelOnly:       r.ErrKernelOnly(),
		PercentTransfer:     r.PercentTransfer(),
	}
}

func oracleJSON(r core.Report) ([]byte, error) {
	return json.MarshalIndent(oracleReport{Report: r, Derived: derivedOf(r)}, "", "  ")
}

// sentinel stands in for every non-finite float when the oracle
// renders a report the encoder writes nulls into; its text is then
// replaced by null. No test input formats to the same text.
const (
	sentinel     = -1.2345678901234567e+300
	sentinelText = "-1.2345678901234567e+300"
)

// replaceNonFinite overwrites, in place, every NaN or ±Inf float64
// reachable from v with sentinel.
func replaceNonFinite(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		if f := v.Float(); math.IsInf(f, 0) || math.IsNaN(f) {
			v.SetFloat(sentinel)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			replaceNonFinite(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			replaceNonFinite(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			replaceNonFinite(v.Field(i))
		}
	}
}

// want is the oracle's rendering of r, with null wherever the report
// or its derived figures hold a non-finite float. It mutates r.
func want(t *testing.T, r *core.Report) []byte {
	t.Helper()
	doc := oracleReport{Report: *r, Derived: derivedOf(*r)}
	replaceNonFinite(reflect.ValueOf(&doc).Elem())
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return bytes.ReplaceAll(data, []byte(sentinelText), []byte("null"))
}

// checkEncoding asserts that JSON and CompactJSON render r exactly as
// the oracle, indented and compacted, does.
func checkEncoding(t *testing.T, r core.Report) {
	t.Helper()
	got, err := JSON(r)
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	gotCompact := CompactJSON(r)
	w := want(t, &r)
	if !bytes.Equal(got, w) {
		t.Fatalf("JSON differs from the oracle at byte %d\n--- got ---\n%s\n--- want ---\n%s",
			firstDiff(got, w), got, w)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, w); err != nil {
		t.Fatalf("json.Compact: %v", err)
	}
	if !bytes.Equal(gotCompact, compact.Bytes()) {
		t.Fatalf("CompactJSON differs from json.Compact(oracle) at byte %d\n--- got ---\n%s\n--- want ---\n%s",
			firstDiff(gotCompact, compact.Bytes()), gotCompact, compact.Bytes())
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// positiveFloat draws a finite positive float over ±100 binary orders
// of magnitude.
func positiveFloat(rnd *rand.Rand) float64 {
	return math.Ldexp(1+rnd.Float64(), rnd.Intn(200)-100)
}

// TestJSONMatchesOracle renders reports that testing/quick fills at
// random — every field of every nested struct, so a field added later
// fails here until the encoder writes it — and compares each with the
// oracle. The top-level times are redrawn positive so that every
// derived figure is finite and the oracle accepts the report.
func TestJSONMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	typ := reflect.TypeOf(core.Report{})
	for i := 0; i < 3000; i++ {
		v, ok := quick.Value(typ, rnd)
		if !ok {
			t.Fatal("quick.Value cannot generate a core.Report")
		}
		r := v.Interface().(core.Report)
		for _, f := range []*float64{&r.CPUTime, &r.PredKernelTime, &r.MeasKernelTime,
			&r.PredTransferTime, &r.MeasTransferTime} {
			*f = positiveFloat(rnd)
		}
		if _, err := oracleJSON(r); err != nil {
			t.Fatalf("report %d: oracle rejects a finite report: %v", i, err)
		}
		checkEncoding(t, r)
	}
}

// goldenReports evaluates every skeleton the golden tests pin through
// every registered backend, clean and with the golden fault plan
// armed, plus the no-transfer skeleton whose derived figures are
// non-finite.
func goldenReports(t *testing.T) map[string]core.Report {
	t.Helper()
	dir := filepath.Join("..", "..", "skeletons")
	files := map[string]string{
		"notransfer": filepath.Join("..", "golden", "testdata", "notransfer.sk"),
	}
	for _, name := range []string{"cfd", "hotspot", "srad", "stassuij"} {
		files[name] = filepath.Join(dir, name+".sk")
	}
	out := make(map[string]core.Report)
	for name, file := range files {
		w, err := sklang.ParseFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, bk := range backend.Default.Names() {
			out[name+"/"+bk] = evaluate(t, core.NewMachine(experiments.DefaultSeed), bk, w)
		}
		m := core.NewMachine(experiments.DefaultSeed)
		m.ArmFaults(fault.Plan{
			TransientProb: 0.01,
			OutlierProb:   0.02, OutlierScale: 8, OutlierBurst: 2,
			Seed: 7,
		})
		out[name+"/faults"] = evaluate(t, m, backend.DefaultName, w)
	}
	return out
}

func evaluate(t *testing.T, m *core.Machine, bk string, w core.Workload) core.Report {
	t.Helper()
	p, _, err := core.New(context.Background(), m, bk, xfermodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestJSONMatchesOracleOnGoldenReports(t *testing.T) {
	reps := goldenReports(t)
	if !reps["hotspot/faults"].Resilient {
		t.Fatal("the faulted HotSpot run is not resilient; the omitempty fields go unchecked")
	}
	for name, r := range reps {
		t.Run(name, func(t *testing.T) { checkEncoding(t, r) })
	}
}

// TestJSONWritesNonFiniteAsNull pins the no-transfer fix: a workload
// whose arrays are all temporary has zero transfer time, so its
// transfer-only speedup is +Inf. encoding/json refuses the whole
// report; the encoder writes null there and valid JSON everywhere.
func TestJSONWritesNonFiniteAsNull(t *testing.T) {
	r := goldenReports(t)["notransfer/analytic"]
	if !math.IsInf(r.SpeedupTransferOnly(), 1) {
		t.Fatalf("transfer-only speedup = %v, want +Inf", r.SpeedupTransferOnly())
	}
	if _, err := oracleJSON(r); err == nil {
		t.Fatal("the oracle accepts a non-finite report; the fix is untested")
	}
	got, _ := JSON(r)
	if !json.Valid(got) || !bytes.Contains(got, []byte(`"speedupTransferOnly": null,`)) {
		t.Fatalf("got\n%s\nwant valid JSON with a null transfer-only speedup", got)
	}
}

// fuzzReport builds a one-kernel, one-transfer report whose free-form
// strings and floats come from the fuzzer.
func fuzzReport(name, deg string, a, b, c, d, e float64) core.Report {
	arr := &skeleton.Array{Name: name, Dims: []int64{64, 32}, Elem: skeleton.Float64, Temporary: deg == ""}
	up := datausage.Transfer{Dir: datausage.Upload, Section: brs.Section{
		Array: arr, Bounds: []brs.Bound{{Lo: 0, Hi: 63, Stride: 1}, {Lo: 1, Hi: 30, Stride: 2}},
	}}
	down := datausage.Transfer{Dir: datausage.Download, Section: brs.WholeArray(arr)}
	r := core.Report{
		Name:             name,
		DataSize:         deg,
		Iterations:       3,
		Kernels:          []core.KernelResult{{Kernel: name, Predicted: a, Measured: b}},
		Transfers:        []core.TransferResult{{Transfer: up, Predicted: c, Measured: d}, {Transfer: down}},
		Plan:             datausage.Plan{Uploads: []datausage.Transfer{up}, Downloads: []datausage.Transfer{down}, ResidentBytes: 8192},
		CPUTime:          a,
		PredKernelTime:   b,
		MeasKernelTime:   c,
		PredTransferTime: d,
		MeasTransferTime: e,
		Resilient:        deg != "",
		Degradations:     []string{deg, name},
	}
	r.Kernels[0].Variant.Name = deg
	r.Kernels[0].Variant.Ch.CompInstsPerThread = e
	r.Kernels[0].Variant.Ch.IrregularFraction = a
	return r
}

// FuzzReportJSON compares the encoder with the oracle on fuzzed
// strings (invalid UTF-8, HTML characters, control characters, line
// separators) and fuzzed floats (signed zeros, subnormals, the
// exponent-format cut-offs, non-finite values). Where a float is
// non-finite the oracle's output is taken with null in its place.
func FuzzReportJSON(f *testing.F) {
	f.Add("HotSpot", "calibration: conservative", 0.012, 0.0011, 0.0010, 0.005, 0.0057)
	f.Add("a<b>&c", "\x00\x1f\"\\\b\f\n\r\t\x7f", 0.0, math.Copysign(0, -1), 5e-324, 1e-7, 1e21)
	f.Add("\xff\xfe\xc3", "\u2028\u2029\ufffd", 1e-6, 9.999999999999999e20, math.MaxFloat64, -1e-7, 123456789.0)
	f.Add("", "", math.Inf(1), math.Inf(-1), math.NaN(), 0.0, 1.0)
	f.Add("x", "y", 1.0, 1.0, 1.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, name, deg string, a, b, c, d, e float64) {
		if strings.Contains(name+deg, "12345678901234567") {
			t.Skip("input spells the oracle's sentinel")
		}
		for _, v := range []float64{a, b, c, d, e} {
			if v == sentinel {
				t.Skip("input is the oracle's sentinel")
			}
		}
		r := fuzzReport(name, deg, a, b, c, d, e)
		for _, v := range []float64{
			r.MeasuredSpeedup(), r.SpeedupFull(), r.SpeedupKernelOnly(), r.SpeedupTransferOnly(),
			r.ErrFull(), r.ErrKernelOnly(), r.PercentTransfer(),
		} {
			if v == sentinel {
				t.Skip("a derived figure is the oracle's sentinel")
			}
		}
		got, _ := JSON(r)
		if !json.Valid(got) {
			t.Fatalf("invalid JSON:\n%s", got)
		}
		checkEncoding(t, r)
	})
}

// The HotSpot report encodes into its one presized buffer, indented
// and compact alike.
func TestJSONAllocBudget(t *testing.T) {
	r := goldenReports(t)["hotspot/analytic"]
	if got := testing.AllocsPerRun(100, func() { JSON(r) }); got > 1 {
		t.Errorf("JSON allocates %.0f per report, budget is 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { CompactJSON(r) }); got > 1 {
		t.Errorf("CompactJSON allocates %.0f per report, budget is 1", got)
	}
}

func BenchmarkJSON(b *testing.B) {
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", "hotspot.sk"))
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProjector(core.NewMachine(experiments.DefaultSeed))
	if err != nil {
		b.Fatal(err)
	}
	r, err := p.Evaluate(w)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			JSON(r)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleJSON(r)
		}
	})
}
