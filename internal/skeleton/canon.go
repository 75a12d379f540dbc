// Canonical content encoding of skeletons.
//
// AppendCanonical produces a deterministic byte encoding of a
// kernel's full content — loops, statements, accesses, and the
// referenced arrays — such that two kernels encode identically if and
// only if every analysis in this repository (transformation
// enumeration, BRS section building, data usage) would treat them
// identically. The encoding is the content-addressed cache key used
// by the memoization layers in internal/transform and internal/brs:
// skeletons are re-parsed per request in the daemon, so pointer
// identity never survives across requests, but content identity does.
//
// Arrays are encoded by per-kernel identity index plus (on first
// reference) their full content. The index keeps two distinct arrays
// that happen to share name and shape distinguishable — analyses such
// as distinct-array register pressure count array *objects*, not
// array names.
//
// The encoding is not meant to be parsed back; it only needs to be
// injective on content. Fields are separated by bytes that cannot
// appear inside strconv integer output ('|', markers) so no two
// different structures concatenate to the same bytes.
package skeleton

import "strconv"

// AppendCanonical appends the canonical content encoding of the
// expression: the constant, then each term's coefficient and variable
// in sorted order, or an irregular marker. Terms in normal form carry
// no zero coefficient, so "x" and "x + 0*y" encode identically — they
// index identically too.
func (e IndexExpr) AppendCanonical(dst []byte) []byte {
	if e.Irregular {
		return append(dst, "?|"...)
	}
	dst = strconv.AppendInt(dst, e.Const, 10)
	for _, t := range e.Terms {
		dst = append(dst, '+')
		dst = strconv.AppendInt(dst, t.Coeff, 10)
		dst = append(dst, '*')
		dst = append(dst, t.Var...)
	}
	return append(dst, '|')
}

// appendCanonical appends the array's full content.
func (a *Array) appendCanonical(dst []byte) []byte {
	dst = append(dst, a.Name...)
	dst = append(dst, '[')
	for _, d := range a.Dims {
		dst = strconv.AppendInt(dst, d, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, ']')
	dst = strconv.AppendInt(dst, int64(a.Elem), 10)
	if a.Sparse {
		dst = append(dst, 'S')
	}
	if a.Temporary {
		dst = append(dst, 'T')
	}
	return append(dst, '|')
}

// AppendCanonical appends the canonical content encoding of the loop.
func (l Loop) AppendCanonical(dst []byte) []byte {
	dst = append(dst, l.Var...)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, l.Lower, 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, l.Upper, 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, l.Step, 10)
	if l.Parallel {
		dst = append(dst, 'P')
	}
	return append(dst, '|')
}

// AppendCanonical appends the canonical content encoding of the whole
// kernel. Equal encodings imply analyses of the two kernels produce
// deeply equal results.
func (k *Kernel) AppendCanonical(dst []byte) []byte {
	dst = append(dst, 'K')
	dst = append(dst, k.Name...)
	dst = append(dst, '|')

	dst = append(dst, 'L')
	dst = strconv.AppendInt(dst, int64(len(k.Loops)), 10)
	dst = append(dst, '|')
	for _, l := range k.Loops {
		dst = l.AppendCanonical(dst)
	}

	// Arrays are numbered in first-reference order; the first
	// reference inlines the content so renamed-but-identical arrays
	// still encode differently, and repeated references to one object
	// encode differently from references to two identical objects.
	ids := make(map[*Array]int)

	dst = append(dst, 'S')
	dst = strconv.AppendInt(dst, int64(len(k.Stmts)), 10)
	dst = append(dst, '|')
	for _, s := range k.Stmts {
		dst = strconv.AppendInt(dst, int64(s.Flops), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(s.IntOps), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(s.Transcendentals), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(s.Depth), 10)
		dst = append(dst, '|')
		for _, ac := range s.Accesses {
			if ac.Kind == Load {
				dst = append(dst, 'l')
			} else {
				dst = append(dst, 's')
			}
			id, seen := ids[ac.Array]
			if !seen {
				id = len(ids)
				ids[ac.Array] = id
			}
			dst = strconv.AppendInt(dst, int64(id), 10)
			if !seen {
				dst = append(dst, '=')
				dst = ac.Array.appendCanonical(dst)
			}
			for _, e := range ac.Index {
				dst = e.AppendCanonical(dst)
			}
			dst = append(dst, ';')
		}
	}
	return dst
}

// AppendCanonical appends the canonical content encoding of the
// sequence: its name, iteration count, and every kernel, with array
// identity numbered across the whole sequence (inter-kernel reuse of
// one array object is part of the content — it is what keeps data
// resident on the GPU between kernels).
func (s *Sequence) AppendCanonical(dst []byte) []byte {
	dst = append(dst, 'Q')
	dst = append(dst, s.Name...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(s.Iterations), 10)
	dst = append(dst, '|')
	ids := make(map[*Array]int)
	for _, k := range s.Kernels {
		dst = k.AppendCanonical(dst)
		// Stamp the sequence-wide identity of each kernel's arrays so
		// two sequences differing only in cross-kernel array sharing
		// encode differently.
		for _, ac := range k.Accesses() {
			id, seen := ids[ac.Array]
			if !seen {
				id = len(ids)
				ids[ac.Array] = id
			}
			dst = strconv.AppendInt(dst, int64(id), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, '|')
	}
	return dst
}
