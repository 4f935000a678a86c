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

import (
	"slices"
	"strconv"
)

// AppendCanonical appends the canonical content encoding of the
// expression: the constant, then each referenced variable with its
// coefficient in sorted order, or an irregular marker. Zero-coefficient
// entries are dropped, so "x" and "x + 0*y" encode identically — they
// index identically too.
func (e IndexExpr) AppendCanonical(dst []byte) []byte {
	if e.Irregular {
		return append(dst, "?|"...)
	}
	dst = strconv.AppendInt(dst, e.Const, 10)
	var buf [4]string
	for _, v := range e.AppendVars(buf[:0]) {
		dst = append(dst, '+')
		dst = strconv.AppendInt(dst, e.Coeffs[v], 10)
		dst = append(dst, '*')
		dst = append(dst, v...)
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
	var ids arrayIDs

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
			id, first := ids.of(ac.Array)
			dst = strconv.AppendInt(dst, int64(id), 10)
			if first {
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

// scanArrays is the number of distinct arrays up to which arrayIDs
// scans a stack array instead of building a map.
const scanArrays = 8

// arrayIDs numbers arrays in first-reference order. It scans its first
// scanArrays arrays in place and moves to a map after that, so a
// kernel touching few arrays numbers them without allocating and one
// touching thousands costs time linear in its accesses.
type arrayIDs struct {
	buf   [scanArrays]*Array
	n     int
	byPtr map[*Array]int // nil until more than scanArrays arrays
}

// of returns a's number and whether this is its first reference,
// numbering it on its first reference.
func (x *arrayIDs) of(a *Array) (id int, first bool) {
	if x.byPtr == nil {
		if i := slices.Index(x.buf[:x.n], a); i >= 0 {
			return i, false
		}
		if x.n < scanArrays {
			x.buf[x.n] = a
			x.n++
			return x.n - 1, true
		}
		x.byPtr = make(map[*Array]int, 2*scanArrays)
		for i, b := range x.buf {
			x.byPtr[b] = i
		}
	}
	if i, ok := x.byPtr[a]; ok {
		return i, false
	}
	id = len(x.byPtr)
	x.byPtr[a] = id
	return id, true
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
