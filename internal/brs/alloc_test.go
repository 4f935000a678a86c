package brs

import (
	"testing"

	"grophecy/internal/skeleton"
)

// Allocation budgets for the section-algebra hot path. Union and
// Intersect allocate exactly one slice each, at every rank: the
// caller-owned result bounds. A regression here shows up as a budget
// bust long before it shows up in a benchmark diff.

func TestUnionAllocBudget(t *testing.T) {
	ac, nest := benchAccess()
	s1 := FromAccess(ac, nest)
	s2 := s1
	s2.Bounds = append([]Bound(nil), s1.Bounds...)
	s2.Bounds[0].Lo += 7
	if got := testing.AllocsPerRun(200, func() { Union(s1, s2) }); got > 1 {
		t.Fatalf("Union allocates %.0f per op, budget is 1", got)
	}
	h1, h2 := highRankSections(3, 8)
	if got := testing.AllocsPerRun(200, func() { Union(h1, h2) }); got > 1 {
		t.Fatalf("rank-3 Union allocates %.0f per op, budget is 1", got)
	}
}

func TestIntersectAllocBudget(t *testing.T) {
	ac, nest := benchAccess()
	s1 := FromAccess(ac, nest)
	s2 := s1
	s2.Bounds = append([]Bound(nil), s1.Bounds...)
	s2.Bounds[0].Lo += 3
	if got := testing.AllocsPerRun(200, func() { Intersect(s1, s2) }); got > 1 {
		t.Fatalf("Intersect allocates %.0f per op, budget is 1", got)
	}
	h1, h2 := highRankSections(3, 8)
	if got := testing.AllocsPerRun(200, func() { Intersect(h1, h2) }); got > 1 {
		t.Fatalf("rank-3 Intersect allocates %.0f per op, budget is 1", got)
	}
}

func TestWholeArrayFastPathsAllocBudget(t *testing.T) {
	a := skeleton.NewArray("w", skeleton.Float32, 1024, 1024)
	w := WholeArray(a)
	if got := testing.AllocsPerRun(200, func() { Union(w, w) }); got != 0 {
		t.Fatalf("whole-array Union allocates %.0f per op, budget is 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { Intersect(w, w) }); got != 0 {
		t.Fatalf("whole-array Intersect allocates %.0f per op, budget is 0", got)
	}
}
