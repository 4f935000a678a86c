package brs

import (
	"testing"

	"grophecy/internal/skeleton"
)

func benchAccess() (skeleton.Access, skeleton.LoopIndex) {
	a := skeleton.NewArray("a", skeleton.Float32, 4096, 4096)
	loops := []skeleton.Loop{skeleton.ParLoop("i", 4096), skeleton.ParLoop("j", 4096)}
	return skeleton.LoadOf(a, skeleton.IdxPlus("i", -1), skeleton.IdxPlus("j", 1)), skeleton.NewLoopIndex(loops)
}

// highRankSections builds a pair of overlapping rank-r sections over
// one array, for the rank >= 3 paths the 3-D stencils exercise.
func highRankSections(r int, shift int64) (Section, Section) {
	dims := make([]int64, r)
	for i := range dims {
		dims[i] = 64
	}
	a := skeleton.NewArray("hr", skeleton.Float32, dims...)
	b1 := make([]Bound, r)
	b2 := make([]Bound, r)
	for i := range b1 {
		b1[i] = Bound{Lo: 0, Hi: 40, Stride: 2}
		b2[i] = Bound{Lo: shift, Hi: 40 + shift, Stride: 4}
	}
	return Section{Array: a, Bounds: b1}, Section{Array: a, Bounds: b2}
}

func BenchmarkFromAccess(b *testing.B) {
	ac, nest := benchAccess()
	for i := 0; i < b.N; i++ {
		_ = FromAccess(ac, nest)
	}
}

func BenchmarkUnion(b *testing.B) {
	ac, nest := benchAccess()
	s1 := FromAccess(ac, nest)
	s2 := s1
	s2.Bounds = append([]Bound(nil), s1.Bounds...)
	s2.Bounds[0].Lo += 7
	for i := 0; i < b.N; i++ {
		_ = Union(s1, s2)
	}
}

func BenchmarkIntersect(b *testing.B) {
	ac, nest := benchAccess()
	s1 := FromAccess(ac, nest)
	s2 := s1
	for i := 0; i < b.N; i++ {
		_, _ = Intersect(s1, s2)
	}
}

func BenchmarkUnionHighRank(b *testing.B) {
	h1, h2 := highRankSections(4, 8)
	for i := 0; i < b.N; i++ {
		_ = Union(h1, h2)
	}
}

func BenchmarkSetAddCovers(b *testing.B) {
	ac, nest := benchAccess()
	s := FromAccess(ac, nest)
	for i := 0; i < b.N; i++ {
		set := NewSet()
		set.Add(s)
		_ = set.Covers(s)
	}
}
