package sklang

import (
	"fmt"
	"sort"
	"strings"

	"grophecy/internal/core"
	"grophecy/internal/skeleton"
)

// Format renders a workload as skeleton-language source. The output
// parses back (Parse) to an equivalent workload — see the round-trip
// property tests — so Format is usable both as an export tool for the
// built-in benchmarks and as a canonical serialization.
//
// Canonical form: statements are emitted grouped by their execution
// depth, as prologues of the loop they belong to (the IR's
// Statement.Depth records how often a statement runs, not whether it
// sat before or after the nested loop, so Format normalizes to the
// prologue position). Format(Parse(Format(w))) == Format(w).
func Format(w core.Workload) (string, error) {
	if err := w.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workload %q size %q\n\n", w.Name, w.DataSize)

	// Declarations sorted by name: stable regardless of access order,
	// which keeps Format idempotent under its own statement
	// normalization.
	arrays := w.Seq.Arrays()
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].Name < arrays[j].Name })
	for _, arr := range arrays {
		if arr.Temporary {
			b.WriteString("temporary ")
		}
		if arr.Sparse {
			b.WriteString("sparse ")
		}
		fmt.Fprintf(&b, "array %s", arr.Name)
		for _, d := range arr.Dims {
			fmt.Fprintf(&b, "[%d]", d)
		}
		fmt.Fprintf(&b, " %s\n", arr.Elem)
	}
	b.WriteString("\n")

	for _, k := range w.Seq.Kernels {
		if err := writeKernel(&b, k); err != nil {
			return "", err
		}
		b.WriteString("\n")
	}

	fmt.Fprintf(&b, "sequence iterations=%d {", w.Seq.Iterations)
	for _, k := range w.Seq.Kernels {
		fmt.Fprintf(&b, " %s", k.Name)
	}
	b.WriteString(" }\n\n")

	fmt.Fprintf(&b, "cpu elements=%d flops=%s bytes=%s transc=%s irregular=%s vectorizable=%v regions=%d\n",
		w.CPU.Elements,
		formatNumber(w.CPU.FlopsPerElem), formatNumber(w.CPU.BytesPerElem),
		formatNumber(w.CPU.TranscendentalsPerElem), formatNumber(w.CPU.IrregularFraction),
		w.CPU.Vectorizable, w.CPU.Regions)
	return b.String(), nil
}

// formatNumber renders a non-negative float as the language's int or
// float literal (no exponent, no sign).
func formatNumber(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimRight(fmt.Sprintf("%f", v), "0")
}

func writeKernel(b *strings.Builder, k *skeleton.Kernel) error {
	fmt.Fprintf(b, "kernel %s {\n", k.Name)

	// Group statements by their effective depth so each can be
	// emitted at the right nesting level.
	byDepth := make(map[int][]skeleton.Statement)
	for _, st := range k.Stmts {
		depth := st.Depth
		if depth == 0 {
			depth = len(k.Loops)
		}
		byDepth[depth] = append(byDepth[depth], st)
	}

	for level, loop := range k.Loops {
		indent := strings.Repeat("    ", level+1)
		word := "for"
		if loop.Parallel {
			word = "parfor"
		}
		fmt.Fprintf(b, "%s%s %s in %d..%d", indent, word, loop.Var, loop.Lower, loop.Upper)
		if loop.Step != 1 {
			fmt.Fprintf(b, " step %d", loop.Step)
		}
		b.WriteString(" {\n")
		for _, st := range byDepth[level+1] {
			if err := writeStmt(b, st, level+2); err != nil {
				return err
			}
		}
	}
	for level := len(k.Loops); level >= 1; level-- {
		b.WriteString(strings.Repeat("    ", level) + "}\n")
	}
	b.WriteString("}\n")
	return nil
}

func writeStmt(b *strings.Builder, st skeleton.Statement, indentLevel int) error {
	indent := strings.Repeat("    ", indentLevel)
	fmt.Fprintf(b, "%sstmt", indent)
	if st.Flops > 0 {
		fmt.Fprintf(b, " flops=%d", st.Flops)
	}
	if st.IntOps > 0 {
		fmt.Fprintf(b, " intops=%d", st.IntOps)
	}
	if st.Transcendentals > 0 {
		fmt.Fprintf(b, " transc=%d", st.Transcendentals)
	}
	b.WriteString(" {\n")
	for _, ac := range st.Accesses {
		fmt.Fprintf(b, "%s    %s %s", indent, ac.Kind, ac.Array.Name)
		for _, e := range ac.Index {
			idx, err := formatIndex(e)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "[%s]", idx)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(b, "%s}\n", indent)
	return nil
}

// formatIndex renders an affine index in language syntax.
func formatIndex(e skeleton.IndexExpr) (string, error) {
	if e.Irregular {
		return "?", nil
	}
	var parts []string
	for _, t := range e.Terms {
		v, c := t.Var, t.Coeff
		switch {
		case c == 1:
			parts = append(parts, "+"+v)
		case c == -1:
			parts = append(parts, "-"+v)
		case c > 0:
			parts = append(parts, fmt.Sprintf("+%d*%s", c, v))
		default:
			parts = append(parts, fmt.Sprintf("-%d*%s", -c, v))
		}
	}
	if e.Const != 0 || len(parts) == 0 {
		if e.Const >= 0 {
			parts = append(parts, fmt.Sprintf("+%d", e.Const))
		} else {
			parts = append(parts, fmt.Sprintf("-%d", -e.Const))
		}
	}
	out := strings.Join(parts, "")
	out = strings.TrimPrefix(out, "+")
	return out, nil
}
