// Package brs implements Bounded Regular Section analysis (Havlak &
// Kennedy), the array-section representation GROPHECY++ uses to decide
// which data must move between CPU and GPU (paper §III-B).
//
// A Section describes the set of elements of one array touched by a
// statement across all enclosing loops: per array dimension a bound
// (Lo, Hi, Stride). The INTERSECT operator detects overlap between
// sections and the UNION operator merges them; both are conservative
// (they may over-approximate, never under-approximate), which is the
// safe direction for transfer planning — over-approximation transfers
// slightly too much, under-approximation would corrupt the
// computation.
//
// Irregular accesses (indirect indexing, sparse arrays) have no
// bounded section; they are represented as whole-array sections,
// matching the paper's conservative fallback: "all elements in the
// sparse array may be referenced, and therefore must be transferred,
// unless users provide additional hints".
package brs

import (
	"fmt"
	"strconv"

	"grophecy/internal/metrics"
	"grophecy/internal/skeleton"
)

// Section-algebra instruments: how much BRS work an analysis does.
var (
	mSections = metrics.Default.MustCounter("brs_sections_built_total",
		"sections derived from accesses")
	mUnions = metrics.Default.MustCounter("brs_unions_total",
		"section union operations")
	mIntersects = metrics.Default.MustCounter("brs_intersections_total",
		"section intersection tests")
)

// Bound is the regular section of one array dimension: the elements
// Lo, Lo+Stride, ..., up to and including Hi (Hi is aligned down to
// the stride grid by construction). Bounds are inclusive on both
// ends, following the BRS literature.
type Bound struct {
	Lo, Hi int64
	Stride int64
}

// Count returns the number of elements the bound covers.
func (b Bound) Count() int64 {
	if b.Hi < b.Lo {
		return 0
	}
	if b.Stride <= 0 {
		return 0
	}
	return (b.Hi-b.Lo)/b.Stride + 1
}

// Contains reports whether the bound's element set is a superset of
// o's. It is exact for stride 1 and conservative (may report false on
// true containment) for larger strides.
func (b Bound) Contains(o Bound) bool {
	if o.Count() == 0 {
		return true
	}
	if b.Count() == 0 {
		return false
	}
	if b.Lo > o.Lo || b.Hi < o.Hi {
		return false
	}
	if b.Stride == 1 {
		return true
	}
	// Same stride grid and congruent offset: exact containment.
	return o.Stride%b.Stride == 0 && (o.Lo-b.Lo)%b.Stride == 0
}

// Overlaps reports whether the bounds share at least one element.
// Exact for stride-1 bounds; conservative (may report true) otherwise.
func (b Bound) Overlaps(o Bound) bool {
	if b.Count() == 0 || o.Count() == 0 {
		return false
	}
	if b.Hi < o.Lo || o.Hi < b.Lo {
		return false
	}
	if b.Stride == 1 || o.Stride == 1 {
		return true
	}
	// Conservative: interval overlap with strides > 1 is treated as
	// element overlap. (Exact testing needs CRT; not worth it here.)
	return true
}

// union returns the conservative hull of two bounds.
func (b Bound) union(o Bound) Bound {
	if b.Count() == 0 {
		return o
	}
	if o.Count() == 0 {
		return b
	}
	lo := min64(b.Lo, o.Lo)
	hi := max64(b.Hi, o.Hi)
	stride := gcd64(b.Stride, o.Stride)
	// Offsets on different grids collapse the stride to their gcd too.
	if d := o.Lo - b.Lo; d != 0 {
		stride = gcd64(stride, abs64(d))
	}
	return Bound{Lo: lo, Hi: hi, Stride: stride}
}

// intersect returns the conservative intersection of two bounds and
// whether it is non-empty.
func (b Bound) intersect(o Bound) (Bound, bool) {
	if !b.Overlaps(o) {
		return Bound{}, false
	}
	lo := max64(b.Lo, o.Lo)
	hi := min64(b.Hi, o.Hi)
	if hi < lo {
		return Bound{}, false
	}
	stride := b.Stride
	if o.Stride > stride {
		stride = o.Stride
	}
	return Bound{Lo: lo, Hi: hi, Stride: stride}, true
}

// String implements fmt.Stringer, e.g. "0:1023" or "0:1022:2".
func (b Bound) String() string { return string(b.appendTo(nil)) }

func (b Bound) appendTo(dst []byte) []byte {
	dst = strconv.AppendInt(dst, b.Lo, 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, b.Hi, 10)
	if b.Stride != 1 {
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, b.Stride, 10)
	}
	return dst
}

// Section is the bounded regular section of one array.
type Section struct {
	Array *skeleton.Array
	// Bounds has one entry per array dimension. Nil when Whole.
	Bounds []Bound
	// Whole marks a conservative whole-array section (irregular or
	// sparse access).
	Whole bool
}

// WholeArray returns the conservative section covering all of a.
func WholeArray(a *skeleton.Array) Section {
	return Section{Array: a, Whole: true}
}

// FromAccess computes the bounded regular section of one access given
// the loop nest it executes under. Affine indices produce exact
// per-dimension bounds, clamped to the array extents (out-of-range
// offsets from stencil halos are guarded in the original code).
// Irregular accesses produce a whole-array section. The caller indexes
// the nest once and passes the index to every access of the kernel,
// so a kernel's sections cost time linear in its accesses and loops.
func FromAccess(ac skeleton.Access, nest skeleton.LoopIndex) Section {
	if err := ac.Validate(); err != nil {
		panic(err)
	}
	mSections.Inc()
	if ac.Irregular() {
		return WholeArray(ac.Array)
	}
	bounds := make([]Bound, len(ac.Index))
	for dim, e := range ac.Index {
		lo, hi := e.Const, e.Const
		stride := int64(0)
		emptyLoop := false
		var buf [4]string
		for _, v := range e.AppendVars(buf[:0]) {
			at := nest.Of(v)
			if at < 0 {
				panic(fmt.Sprintf("brs: access %s references loop %q not in nest", ac.String(), v))
			}
			l := nest.Loop(at)
			if l.Trips() == 0 {
				emptyLoop = true
				break
			}
			c := e.Coeff(v)
			first := l.Lower
			last := l.Lower + (l.Trips()-1)*l.Step
			a, b := c*first, c*last
			if a > b {
				a, b = b, a
			}
			lo += a
			hi += b
			stride = gcd64(stride, abs64(c)*l.Step)
		}
		if emptyLoop {
			// An empty loop executes the access zero times.
			bounds[dim] = Bound{Lo: 0, Hi: -1, Stride: 1}
			continue
		}
		if stride == 0 {
			stride = 1
		}
		// Clamp to the array extents: halo offsets are guarded.
		if lo < 0 {
			lo = 0
		}
		if maxIdx := ac.Array.Dims[dim] - 1; hi > maxIdx {
			hi = maxIdx
		}
		bounds[dim] = Bound{Lo: lo, Hi: hi, Stride: stride}
	}
	return Section{Array: ac.Array, Bounds: bounds}
}

// Validate checks structural sanity.
func (s Section) Validate() error {
	if s.Array == nil {
		return fmt.Errorf("brs: section with nil array")
	}
	if s.Whole {
		return nil
	}
	if len(s.Bounds) != len(s.Array.Dims) {
		return fmt.Errorf("brs: section of %q has %d bounds, array has %d dims",
			s.Array.Name, len(s.Bounds), len(s.Array.Dims))
	}
	for i, b := range s.Bounds {
		if b.Stride <= 0 {
			return fmt.Errorf("brs: section of %q dim %d has stride %d", s.Array.Name, i, b.Stride)
		}
	}
	return nil
}

// Count returns the number of elements in the section.
func (s Section) Count() int64 {
	if s.Whole {
		return s.Array.Count()
	}
	n := int64(1)
	for _, b := range s.Bounds {
		n *= b.Count()
	}
	return n
}

// Bytes returns the section footprint in bytes — the quantity handed
// to the transfer model.
func (s Section) Bytes() int64 { return s.Count() * s.Array.Elem.Size() }

// Empty reports whether the section covers no elements.
func (s Section) Empty() bool { return s.Count() == 0 }

// IsWholeArray reports whether the section covers every element.
func (s Section) IsWholeArray() bool { return s.Count() == s.Array.Count() }

// Contains reports whether s covers every element of o. Sections of
// different arrays never contain each other.
func (s Section) Contains(o Section) bool {
	if s.Array != o.Array {
		return false
	}
	if s.Whole {
		return true
	}
	if o.Whole {
		return s.IsWholeArray()
	}
	for i := range s.Bounds {
		if !s.Bounds[i].Contains(o.Bounds[i]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether s and o share at least one element
// (the INTERSECT operator's emptiness test).
func (s Section) Overlaps(o Section) bool {
	if s.Array != o.Array || s.Empty() || o.Empty() {
		return false
	}
	if s.Whole || o.Whole {
		return true
	}
	for i := range s.Bounds {
		if !s.Bounds[i].Overlaps(o.Bounds[i]) {
			return false
		}
	}
	return true
}

// Union returns the conservative union (bounding hull) of two sections
// of the same array. It panics if the arrays differ, which indicates a
// caller bug.
func Union(a, b Section) Section {
	if a.Array != b.Array {
		panic(fmt.Sprintf("brs: union of sections of different arrays %q and %q",
			a.Array.Name, b.Array.Name))
	}
	mUnions.Inc()
	if a.Whole || b.Whole {
		return WholeArray(a.Array)
	}
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	bounds := make([]Bound, len(a.Bounds))
	for i := range bounds {
		bounds[i] = a.Bounds[i].union(b.Bounds[i])
	}
	return Section{Array: a.Array, Bounds: bounds}
}

// Intersect returns the conservative intersection of two sections and
// whether it is non-empty. It panics if the arrays differ.
func Intersect(a, b Section) (Section, bool) {
	if a.Array != b.Array {
		panic(fmt.Sprintf("brs: intersection of sections of different arrays %q and %q",
			a.Array.Name, b.Array.Name))
	}
	mIntersects.Inc()
	if !a.Overlaps(b) {
		return Section{}, false
	}
	if a.Whole {
		return b, true
	}
	if b.Whole {
		return a, true
	}
	bounds := make([]Bound, len(a.Bounds))
	for i := range bounds {
		ib, ok := a.Bounds[i].intersect(b.Bounds[i])
		if !ok {
			return Section{}, false
		}
		bounds[i] = ib
	}
	return Section{Array: a.Array, Bounds: bounds}, true
}

// String implements fmt.Stringer, e.g. "temp[0:1023][0:1023]" or
// "vals[*]" for whole-array sections.
func (s Section) String() string {
	var buf [64]byte
	dst := append(buf[:0], s.Array.Name...)
	if s.Whole {
		return string(append(dst, "[*]"...))
	}
	for _, bd := range s.Bounds {
		dst = append(bd.appendTo(append(dst, '[')), ']')
	}
	return string(dst)
}

// Set maintains one merged section per array — the UNION lists the
// data usage analyzer accumulates ("we maintain a list of BRSs...").
type Set struct {
	byArray map[*skeleton.Array]Section
	order   []*skeleton.Array
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{byArray: make(map[*skeleton.Array]Section)}
}

// Add merges a section into the set (UNION with any existing section
// of the same array). Empty sections are ignored.
func (st *Set) Add(s Section) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if s.Empty() {
		return
	}
	if cur, ok := st.byArray[s.Array]; ok {
		st.byArray[s.Array] = Union(cur, s)
		return
	}
	st.byArray[s.Array] = s
	st.order = append(st.order, s.Array)
}

// Covers reports whether the set's section for s's array contains s.
func (st *Set) Covers(s Section) bool {
	cur, ok := st.byArray[s.Array]
	return ok && cur.Contains(s)
}

// Sections returns the merged sections in first-insertion order.
func (st *Set) Sections() []Section {
	out := make([]Section, 0, len(st.order))
	for _, a := range st.order {
		out = append(out, st.byArray[a])
	}
	return out
}

// TotalBytes sums the byte footprint of all merged sections.
func (st *Set) TotalBytes() int64 {
	var n int64
	for _, s := range st.byArray {
		n += s.Bytes()
	}
	return n
}

// Remove drops the merged section of array a, if any. Used by
// residency tracking when a GPU copy becomes stale.
func (st *Set) Remove(a *skeleton.Array) {
	if _, ok := st.byArray[a]; !ok {
		return
	}
	delete(st.byArray, a)
	for i, arr := range st.order {
		if arr == a {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// Len returns the number of arrays with a section in the set.
func (st *Set) Len() int { return len(st.byArray) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func gcd64(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
