package brs

import (
	"testing"
	"testing/quick"

	"grophecy/internal/skeleton"
)

func TestBoundCount(t *testing.T) {
	cases := []struct {
		b    Bound
		want int64
	}{
		{Bound{0, 9, 1}, 10},
		{Bound{0, 9, 2}, 5},
		{Bound{0, 8, 2}, 5},
		{Bound{5, 5, 1}, 1},
		{Bound{5, 4, 1}, 0},
		{Bound{0, 9, 0}, 0},
	}
	for _, c := range cases {
		if got := c.b.Count(); got != c.want {
			t.Errorf("%+v.Count() = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestBoundContains(t *testing.T) {
	cases := []struct {
		a, b Bound
		want bool
	}{
		{Bound{0, 9, 1}, Bound{2, 5, 1}, true},
		{Bound{0, 9, 1}, Bound{0, 9, 1}, true},
		{Bound{2, 5, 1}, Bound{0, 9, 1}, false},
		{Bound{0, 9, 1}, Bound{0, 8, 2}, true},  // stride-1 superset
		{Bound{0, 8, 2}, Bound{0, 8, 4}, true},  // same grid, coarser stride
		{Bound{0, 8, 2}, Bound{1, 7, 2}, false}, // offset off-grid
		{Bound{0, 9, 1}, Bound{5, 4, 1}, true},  // empty always contained
		{Bound{5, 4, 1}, Bound{0, 9, 1}, false}, // empty contains nothing
		{Bound{0, 8, 4}, Bound{0, 8, 2}, false}, // finer stride not contained
	}
	for _, c := range cases {
		if got := c.a.Contains(c.b); got != c.want {
			t.Errorf("%+v.Contains(%+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBoundOverlaps(t *testing.T) {
	cases := []struct {
		a, b Bound
		want bool
	}{
		{Bound{0, 4, 1}, Bound{4, 8, 1}, true},
		{Bound{0, 4, 1}, Bound{5, 8, 1}, false},
		{Bound{5, 8, 1}, Bound{0, 4, 1}, false},
		{Bound{0, 4, 1}, Bound{2, 2, 1}, true},
		{Bound{0, 4, 1}, Bound{4, 3, 1}, false}, // empty
		{Bound{0, 8, 2}, Bound{1, 9, 2}, true},  // conservative
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%+v.Overlaps(%+v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBoundString(t *testing.T) {
	if got := (Bound{0, 9, 1}).String(); got != "0:9" {
		t.Errorf("String = %q", got)
	}
	if got := (Bound{0, 8, 2}).String(); got != "0:8:2" {
		t.Errorf("String = %q", got)
	}
}

func grid(t *testing.T, n int64) *skeleton.Array {
	t.Helper()
	return skeleton.NewArray("grid", skeleton.Float32, n, n)
}

func loops2D(n int64) []skeleton.Loop {
	return []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)}
}

func TestFromAccessSimple(t *testing.T) {
	a := grid(t, 64)
	s := FromAccess(skeleton.LoadOf(a, skeleton.Idx("i"), skeleton.Idx("j")), loops2D(64))
	if s.Whole {
		t.Fatal("affine access produced whole-array section")
	}
	want := []Bound{{0, 63, 1}, {0, 63, 1}}
	for d, b := range s.Bounds {
		if b != want[d] {
			t.Errorf("dim %d = %+v, want %+v", d, b, want[d])
		}
	}
	if s.Count() != 64*64 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Bytes() != 64*64*4 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	if !s.IsWholeArray() {
		t.Error("full-range section should be whole array")
	}
}

func TestFromAccessHaloClamped(t *testing.T) {
	// A stencil access grid[i-1][j+1] over i,j in [0,64) is clamped
	// to the array extents.
	a := grid(t, 64)
	s := FromAccess(skeleton.LoadOf(a, skeleton.IdxPlus("i", -1), skeleton.IdxPlus("j", 1)), loops2D(64))
	if s.Bounds[0] != (Bound{0, 62, 1}) {
		t.Errorf("dim 0 = %+v", s.Bounds[0])
	}
	if s.Bounds[1] != (Bound{1, 63, 1}) {
		t.Errorf("dim 1 = %+v", s.Bounds[1])
	}
}

func TestFromAccessStride(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 128)
	s := FromAccess(skeleton.LoadOf(a, skeleton.IndexExpr{Coeffs: map[string]int64{"i": 2}}),
		[]skeleton.Loop{skeleton.ParLoop("i", 64)})
	if s.Bounds[0] != (Bound{0, 126, 2}) {
		t.Errorf("bound = %+v", s.Bounds[0])
	}
	if s.Count() != 64 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestFromAccessConstIndex(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 128)
	s := FromAccess(skeleton.LoadOf(a, skeleton.IdxConst(7)), nil)
	if s.Bounds[0] != (Bound{7, 7, 1}) {
		t.Errorf("bound = %+v", s.Bounds[0])
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestFromAccessMultiVarFlattened(t *testing.T) {
	// v[i*16 + j] over i in [0,8), j in [0,16): covers 0..127 stride 1
	// (gcd of 16 and 1).
	a := skeleton.NewArray("v", skeleton.Float32, 128)
	loops := []skeleton.Loop{skeleton.ParLoop("i", 8), skeleton.ParLoop("j", 16)}
	s := FromAccess(skeleton.LoadOf(a, skeleton.IndexExpr{Coeffs: map[string]int64{"i": 16, "j": 1}}), loops)
	if s.Bounds[0] != (Bound{0, 127, 1}) {
		t.Errorf("bound = %+v", s.Bounds[0])
	}
}

func TestFromAccessIrregular(t *testing.T) {
	a := skeleton.NewArray("x", skeleton.Float32, 100)
	s := FromAccess(skeleton.LoadOf(a, skeleton.IdxIrregular()),
		[]skeleton.Loop{skeleton.ParLoop("i", 10)})
	if !s.Whole {
		t.Fatal("irregular access should give whole-array section")
	}
	if s.Count() != 100 {
		t.Errorf("Count = %d", s.Count())
	}
}

func TestFromAccessSparseArray(t *testing.T) {
	sp := &skeleton.Array{Name: "csr", Dims: []int64{500}, Elem: skeleton.Float32, Sparse: true}
	s := FromAccess(skeleton.LoadOf(sp, skeleton.Idx("i")),
		[]skeleton.Loop{skeleton.ParLoop("i", 500)})
	if !s.Whole {
		t.Error("sparse array access should be conservative whole-array")
	}
}

func TestFromAccessEmptyLoop(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 16)
	s := FromAccess(skeleton.LoadOf(a, skeleton.Idx("i")),
		[]skeleton.Loop{{Var: "i", Lower: 4, Upper: 4, Step: 1, Parallel: true}})
	if !s.Empty() {
		t.Errorf("empty loop section not empty: %+v", s)
	}
}

func TestFromAccessPanicsOnUnknownLoop(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown loop var did not panic")
		}
	}()
	FromAccess(skeleton.LoadOf(a, skeleton.Idx("q")), nil)
}

func TestSectionContainsAndOverlaps(t *testing.T) {
	a := grid(t, 64)
	full := FromAccess(skeleton.LoadOf(a, skeleton.Idx("i"), skeleton.Idx("j")), loops2D(64))
	inner := FromAccess(skeleton.LoadOf(a, skeleton.IdxPlus("i", 1), skeleton.IdxPlus("j", 1)),
		[]skeleton.Loop{skeleton.ParLoop("i", 32), skeleton.ParLoop("j", 32)})
	if !full.Contains(inner) {
		t.Error("full should contain inner")
	}
	if inner.Contains(full) {
		t.Error("inner should not contain full")
	}
	if !full.Overlaps(inner) || !inner.Overlaps(full) {
		t.Error("sections should overlap")
	}
	b := grid(t, 64)
	other := WholeArray(b)
	if full.Contains(other) || full.Overlaps(other) {
		t.Error("sections of different arrays should not relate")
	}
}

func TestWholeArraySection(t *testing.T) {
	a := grid(t, 8)
	w := WholeArray(a)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 64 || !w.IsWholeArray() || w.Empty() {
		t.Error("whole-array section properties wrong")
	}
	if w.String() != "grid[*]" {
		t.Errorf("String = %q", w.String())
	}
	sub := FromAccess(skeleton.LoadOf(a, skeleton.IdxConst(0), skeleton.Idx("j")),
		[]skeleton.Loop{skeleton.ParLoop("j", 8)})
	if !w.Contains(sub) {
		t.Error("whole should contain sub")
	}
	if sub.Contains(w) {
		t.Error("sub should not contain whole")
	}
}

func TestUnionHull(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 100)
	s1 := Section{Array: a, Bounds: []Bound{{0, 9, 1}}}
	s2 := Section{Array: a, Bounds: []Bound{{20, 29, 1}}}
	u := Union(s1, s2)
	if u.Bounds[0] != (Bound{0, 29, 1}) {
		t.Errorf("union = %+v", u.Bounds[0])
	}
	// Union is conservative: it covers both inputs.
	if !u.Contains(s1) || !u.Contains(s2) {
		t.Error("union must contain both inputs")
	}
}

func TestUnionWithWholeAndEmpty(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 100)
	s := Section{Array: a, Bounds: []Bound{{0, 9, 1}}}
	if u := Union(s, WholeArray(a)); !u.Whole {
		t.Error("union with whole should be whole")
	}
	empty := Section{Array: a, Bounds: []Bound{{5, 4, 1}}}
	if u := Union(s, empty); u.Count() != 10 {
		t.Errorf("union with empty = %+v", u)
	}
	if u := Union(empty, s); u.Count() != 10 {
		t.Errorf("union empty-first = %+v", u)
	}
}

func TestUnionStrideGCD(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 100)
	s1 := Section{Array: a, Bounds: []Bound{{0, 8, 4}}}
	s2 := Section{Array: a, Bounds: []Bound{{2, 10, 4}}}
	u := Union(s1, s2)
	// Offset 2 between grids: stride collapses to gcd(4,4,2)=2.
	if u.Bounds[0] != (Bound{0, 10, 2}) {
		t.Errorf("union = %+v", u.Bounds[0])
	}
	if !u.Contains(s1) || !u.Contains(s2) {
		t.Error("union must contain both inputs")
	}
}

func TestUnionPanicsOnDifferentArrays(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 4)
	b := skeleton.NewArray("b", skeleton.Float32, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("union of different arrays did not panic")
		}
	}()
	Union(WholeArray(a), WholeArray(b))
}

func TestIntersect(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 100)
	s1 := Section{Array: a, Bounds: []Bound{{0, 49, 1}}}
	s2 := Section{Array: a, Bounds: []Bound{{30, 79, 1}}}
	in, ok := Intersect(s1, s2)
	if !ok || in.Bounds[0] != (Bound{30, 49, 1}) {
		t.Errorf("intersect = %+v, %v", in, ok)
	}
	s3 := Section{Array: a, Bounds: []Bound{{60, 79, 1}}}
	if _, ok := Intersect(s1, s3); ok {
		t.Error("disjoint sections should not intersect")
	}
	w := WholeArray(a)
	if in, ok := Intersect(w, s1); !ok || in.Count() != 50 {
		t.Error("whole ∩ s1 should be s1")
	}
	if in, ok := Intersect(s1, w); !ok || in.Count() != 50 {
		t.Error("s1 ∩ whole should be s1")
	}
}

func TestIntersectPanicsOnDifferentArrays(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 4)
	b := skeleton.NewArray("b", skeleton.Float32, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("intersect of different arrays did not panic")
		}
	}()
	Intersect(WholeArray(a), WholeArray(b))
}

func TestSectionString(t *testing.T) {
	a := grid(t, 64)
	s := FromAccess(skeleton.LoadOf(a, skeleton.Idx("i"), skeleton.Idx("j")), loops2D(64))
	if got := s.String(); got != "grid[0:63][0:63]" {
		t.Errorf("String = %q", got)
	}
}

func TestSectionValidate(t *testing.T) {
	a := grid(t, 4)
	bad := []Section{
		{Array: nil},
		{Array: a, Bounds: []Bound{{0, 3, 1}}},            // dim mismatch
		{Array: a, Bounds: []Bound{{0, 3, 0}, {0, 3, 1}}}, // zero stride
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid section accepted", i)
		}
	}
	if err := WholeArray(a).Validate(); err != nil {
		t.Error(err)
	}
}

func TestSetMergesPerArray(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 100)
	b := skeleton.NewArray("b", skeleton.Float32, 50)
	set := NewSet()
	set.Add(Section{Array: a, Bounds: []Bound{{0, 9, 1}}})
	set.Add(Section{Array: a, Bounds: []Bound{{10, 19, 1}}})
	set.Add(WholeArray(b))
	if set.Len() != 2 {
		t.Fatalf("Len = %d", set.Len())
	}
	sa, ok := set.Section(a)
	if !ok || sa.Bounds[0] != (Bound{0, 19, 1}) {
		t.Errorf("merged section = %+v", sa)
	}
	if got := set.TotalBytes(); got != 20*4+50*4 {
		t.Errorf("TotalBytes = %d", got)
	}
	secs := set.Sections()
	if len(secs) != 2 || secs[0].Array != a || secs[1].Array != b {
		t.Error("Sections order wrong")
	}
	sorted := set.SortedSections()
	if sorted[0].Array.Name != "a" || sorted[1].Array.Name != "b" {
		t.Error("SortedSections order wrong")
	}
}

func TestSetCovers(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 100)
	set := NewSet()
	sub := Section{Array: a, Bounds: []Bound{{0, 49, 1}}}
	if set.Covers(sub) {
		t.Error("empty set covers nothing")
	}
	set.Add(Section{Array: a, Bounds: []Bound{{0, 99, 1}}})
	if !set.Covers(sub) {
		t.Error("set should cover sub-section")
	}
	if !set.OverlapsAny(sub) {
		t.Error("set should overlap sub-section")
	}
}

func TestSetIgnoresEmpty(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 100)
	set := NewSet()
	set.Add(Section{Array: a, Bounds: []Bound{{5, 4, 1}}})
	if set.Len() != 0 {
		t.Error("empty section should be ignored")
	}
}

func TestQuickUnionContainsInputs(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 1<<20)
	prop := func(lo1, n1, lo2, n2 uint16, st1, st2 uint8) bool {
		s1 := Section{Array: a, Bounds: []Bound{{int64(lo1), int64(lo1) + int64(n1), int64(st1%8) + 1}}}
		s2 := Section{Array: a, Bounds: []Bound{{int64(lo2), int64(lo2) + int64(n2), int64(st2%8) + 1}}}
		u := Union(s1, s2)
		return u.Contains(s1) && u.Contains(s2)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectWithinInputs(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 1<<20)
	prop := func(lo1, n1, lo2, n2 uint16) bool {
		s1 := Section{Array: a, Bounds: []Bound{{int64(lo1), int64(lo1) + int64(n1), 1}}}
		s2 := Section{Array: a, Bounds: []Bound{{int64(lo2), int64(lo2) + int64(n2), 1}}}
		in, ok := Intersect(s1, s2)
		if !ok {
			return true
		}
		// For stride-1 sections the intersection is exact and must be
		// contained in both inputs.
		return s1.Contains(in) && s2.Contains(in)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFromAccessBytesNonNegative(t *testing.T) {
	a := skeleton.NewArray("v", skeleton.Float32, 4096)
	prop := func(off int8, n uint8) bool {
		loops := []skeleton.Loop{skeleton.ParLoop("i", int64(n)+1)}
		s := FromAccess(skeleton.LoadOf(a, skeleton.IdxPlus("i", int64(off))), loops)
		return s.Bytes() >= 0 && s.Count() <= a.Count()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetRemove(t *testing.T) {
	a := skeleton.NewArray("a", skeleton.Float32, 100)
	b := skeleton.NewArray("b", skeleton.Float32, 100)
	set := NewSet()
	set.Add(WholeArray(a))
	set.Add(WholeArray(b))
	set.Remove(a)
	if set.Len() != 1 {
		t.Fatalf("Len = %d after remove", set.Len())
	}
	if _, ok := set.Section(a); ok {
		t.Error("removed section still present")
	}
	if secs := set.Sections(); len(secs) != 1 || secs[0].Array != b {
		t.Errorf("Sections = %v", secs)
	}
	// Removing an absent array is a no-op.
	set.Remove(a)
	if set.Len() != 1 {
		t.Error("double remove changed the set")
	}
	// Re-adding after removal works.
	set.Add(WholeArray(a))
	if set.Len() != 2 {
		t.Error("re-add after remove failed")
	}
}
