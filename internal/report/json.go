package report

import (
	"math"
	"strconv"
	"unicode/utf8"

	"grophecy/internal/core"
	"grophecy/internal/datausage"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/transform"
)

// JSON renders the report as indented JSON, including the derived
// speedup and error figures: the report's fields in declaration order,
// then a "derived" object with the quantities a consumer would
// otherwise have to recompute. The bytes are those encoding/json's
// MarshalIndent(v, "", "  ") would produce for the same value, with
// one difference: a non-finite float (a speedup over a zero transfer
// time, say) is written as null where encoding/json refuses the whole
// value. The error is always nil; the signature keeps callers
// unchanged.
func JSON(r core.Report) ([]byte, error) {
	return encode(r, false), nil
}

// CompactJSON renders the report as JSON without insignificant
// whitespace: the bytes json.Compact would make of JSON's output.
// Streamed rows use it, because each must be one physical line.
func CompactJSON(r core.Report) []byte {
	return encode(r, true)
}

// encode renders the report, indented or compact, into one buffer
// sized up front.
func encode(r core.Report, compact bool) []byte {
	n := sizeHint(r)
	if compact {
		n /= 2 // indentation is over half of an indented report
	}
	e := encoder{buf: make([]byte, 0, n), compact: compact}
	e.report(r)
	return e.buf
}

// sizeHint estimates the indented size of the report generously
// enough that a typical report encodes into one allocation. The
// figures per element are upper bounds measured on the golden
// reports, plus the length of every free-form string.
func sizeHint(r core.Report) int {
	n := 1024 + len(r.Name) + len(r.DataSize)
	for _, k := range r.Kernels {
		n += 1024 + len(k.Kernel) + len(k.Variant.Name) + len(k.Variant.Ch.Name)
	}
	for _, list := range [...][]datausage.Transfer{r.Plan.Uploads, r.Plan.Downloads} {
		for _, t := range list {
			n += transferHint(t)
		}
	}
	for _, t := range r.Transfers {
		n += 128 + transferHint(t.Transfer)
	}
	for _, d := range r.Degradations {
		n += 16 + len(d)
	}
	return n
}

func transferHint(t datausage.Transfer) int {
	n := 512 + 96*len(t.Section.Bounds)
	if a := t.Section.Array; a != nil {
		n += len(a.Name) + 32*len(a.Dims)
	}
	return n
}

// encoder appends JSON tokens to buf. In indented mode it lays them
// out exactly as json.Indent with a two-space indent does; in compact
// mode it writes no whitespace at all.
type encoder struct {
	buf     []byte
	compact bool
	depth   int
	// first is true until the innermost open object or array has
	// its first member.
	first bool
}

// lineIndent is a line break followed by two spaces for each of more
// levels than the report's fixed schema nests (seven).
const lineIndent = "\n                "

// newline breaks the line and indents to the current depth.
func (e *encoder) newline() {
	if !e.compact {
		e.buf = append(e.buf, lineIndent[:1+2*e.depth]...)
	}
}

// member separates the next member from its predecessor.
func (e *encoder) member() {
	if !e.first {
		e.buf = append(e.buf, ',')
	}
	e.first = false
	e.newline()
}

func (e *encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.first = true
}

func (e *encoder) close(c byte) {
	e.depth--
	if !e.first { // empty containers stay "[]" on one line
		e.newline()
	}
	e.buf = append(e.buf, c)
	e.first = false
}

// key writes an object member name. Names are Go identifiers or
// ASCII JSON tags, which need no escaping.
func (e *encoder) key(k string) {
	e.member()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, k...)
	e.buf = append(e.buf, '"', ':')
	if !e.compact {
		e.buf = append(e.buf, ' ')
	}
}

func (e *encoder) null() { e.buf = append(e.buf, "null"...) }

func (e *encoder) str(k, v string) {
	e.key(k)
	e.buf = appendString(e.buf, v)
}

func (e *encoder) int(k string, v int64) {
	e.key(k)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

func (e *encoder) float(k string, v float64) {
	e.key(k)
	e.buf = appendFloat(e.buf, v)
}

func (e *encoder) bool(k string, v bool) {
	e.key(k)
	e.buf = strconv.AppendBool(e.buf, v)
}

func (e *encoder) report(r core.Report) {
	e.open('{')
	e.str("Name", r.Name)
	e.str("DataSize", r.DataSize)
	e.int("Iterations", int64(r.Iterations))
	e.key("Kernels")
	if r.Kernels == nil {
		e.null()
	} else {
		e.open('[')
		for _, k := range r.Kernels {
			e.member()
			e.kernel(k)
		}
		e.close(']')
	}
	e.key("Transfers")
	if r.Transfers == nil {
		e.null()
	} else {
		e.open('[')
		for _, t := range r.Transfers {
			e.member()
			e.open('{')
			e.key("Transfer")
			e.transfer(t.Transfer)
			e.float("Predicted", t.Predicted)
			e.float("Measured", t.Measured)
			e.close('}')
		}
		e.close(']')
	}
	e.key("Plan")
	e.open('{')
	e.key("Uploads")
	e.transfers(r.Plan.Uploads)
	e.key("Downloads")
	e.transfers(r.Plan.Downloads)
	e.int("ResidentBytes", r.Plan.ResidentBytes)
	e.close('}')
	e.float("CPUTime", r.CPUTime)
	e.float("PredKernelTime", r.PredKernelTime)
	e.float("MeasKernelTime", r.MeasKernelTime)
	e.float("PredTransferTime", r.PredTransferTime)
	e.float("MeasTransferTime", r.MeasTransferTime)
	if r.Resilient {
		e.bool("Resilient", true)
	}
	if len(r.Degradations) > 0 {
		e.key("Degradations")
		e.open('[')
		for _, d := range r.Degradations {
			e.member()
			e.buf = appendString(e.buf, d)
		}
		e.close(']')
	}
	e.key("derived")
	e.open('{')
	e.float("measuredSpeedup", r.MeasuredSpeedup())
	e.float("speedupFull", r.SpeedupFull())
	e.float("speedupKernelOnly", r.SpeedupKernelOnly())
	e.float("speedupTransferOnly", r.SpeedupTransferOnly())
	e.float("errFull", r.ErrFull())
	e.float("errKernelOnly", r.ErrKernelOnly())
	e.float("percentTransfer", r.PercentTransfer())
	e.close('}')
	e.close('}')
}

func (e *encoder) kernel(k core.KernelResult) {
	e.open('{')
	e.str("Kernel", k.Kernel)
	e.key("Variant")
	e.variant(k.Variant)
	e.float("Predicted", k.Predicted)
	e.float("Measured", k.Measured)
	e.close('}')
}

func (e *encoder) variant(v transform.Variant) {
	e.open('{')
	e.str("Name", v.Name)
	e.int("BlockSize", int64(v.BlockSize))
	e.key("BlockDims")
	e.open('[')
	for _, d := range v.BlockDims {
		e.member()
		e.buf = strconv.AppendInt(e.buf, int64(d), 10)
	}
	e.close(']')
	e.bool("SharedStaging", v.SharedStaging)
	e.int("Unroll", int64(v.Unroll))
	e.key("Ch")
	e.characteristics(v.Ch)
	e.close('}')
}

func (e *encoder) characteristics(c perfmodel.Characteristics) {
	e.open('{')
	e.str("Name", c.Name)
	e.int("Threads", c.Threads)
	e.int("BlockSize", int64(c.BlockSize))
	e.float("CompInstsPerThread", c.CompInstsPerThread)
	e.float("GlobalLoadsPerThread", c.GlobalLoadsPerThread)
	e.float("GlobalStoresPerThread", c.GlobalStoresPerThread)
	e.float("TransactionsPerRequest", c.TransactionsPerRequest)
	e.float("BytesPerThread", c.BytesPerThread)
	e.int("RegsPerThread", int64(c.RegsPerThread))
	e.int("SharedMemPerBlock", c.SharedMemPerBlock)
	e.float("SyncsPerThread", c.SyncsPerThread)
	e.float("IrregularFraction", c.IrregularFraction)
	e.close('}')
}

func (e *encoder) transfers(ts []datausage.Transfer) {
	if ts == nil {
		e.null()
		return
	}
	e.open('[')
	for _, t := range ts {
		e.member()
		e.transfer(t)
	}
	e.close(']')
}

func (e *encoder) transfer(t datausage.Transfer) {
	e.open('{')
	e.int("Dir", int64(t.Dir))
	e.key("Section")
	e.open('{')
	e.key("Array")
	e.array(t.Section.Array)
	e.key("Bounds")
	if t.Section.Bounds == nil {
		e.null()
	} else {
		e.open('[')
		for _, b := range t.Section.Bounds {
			e.member()
			e.open('{')
			e.int("Lo", b.Lo)
			e.int("Hi", b.Hi)
			e.int("Stride", b.Stride)
			e.close('}')
		}
		e.close(']')
	}
	e.bool("Whole", t.Section.Whole)
	e.close('}')
	e.close('}')
}

func (e *encoder) array(a *skeleton.Array) {
	if a == nil {
		e.null()
		return
	}
	e.open('{')
	e.str("Name", a.Name)
	e.key("Dims")
	if a.Dims == nil {
		e.null()
	} else {
		e.open('[')
		for _, d := range a.Dims {
			e.member()
			e.buf = strconv.AppendInt(e.buf, d, 10)
		}
		e.close(']')
	}
	e.int("Elem", int64(a.Elem))
	e.bool("Sparse", a.Sparse)
	e.bool("Temporary", a.Temporary)
	e.close('}')
}

// appendFloat formats f as encoding/json does — like %g, but with the
// exponent cut-offs of ES6 number-to-string and unpadded exponents —
// and writes null for NaN and ±Inf, which JSON cannot represent.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hex = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// quotes, backslashes, control characters, <, > and & are escaped,
// U+2028 and U+2029 too, and each invalid UTF-8 byte becomes U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
