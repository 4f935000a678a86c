package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestDecisionMapShape(t *testing.T) {
	ctx := getCtx(t)
	flops := []int{1, 8, 64, 512}
	iters := []int{1, 8, 64}
	res, err := ctx.DecisionMap(context.Background(), 1024, flops, iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(flops) || len(res.Points[0]) != len(iters) {
		t.Fatalf("grid shape = %dx%d", len(res.Points), len(res.Points[0]))
	}

	// The flip region exists (the paper's Stassuij scenario is not a
	// corner case) and sits at low iteration counts.
	if res.FlipCount() == 0 {
		t.Error("no kernel-only flips found — the map should contain the Stassuij regime")
	}
	for _, row := range res.Points {
		for _, pt := range row {
			if pt.Verdict == KernelOnlyFlips && pt.Iterations > 8 {
				t.Errorf("flip at %d iterations — amortization should have killed it",
					pt.Iterations)
			}
			// Invariants of every cell.
			if pt.PredFull > pt.PredKernel {
				t.Errorf("cell f=%d it=%d: full prediction above kernel-only",
					pt.FlopsPerElem, pt.Iterations)
			}
			if pt.Measured <= 0 {
				t.Errorf("cell f=%d it=%d: measured %v", pt.FlopsPerElem, pt.Iterations, pt.Measured)
			}
		}
	}

	// GROPHECY++ itself misjudges at most a sliver of cells (the
	// break-even boundary).
	total := len(flops) * len(iters)
	if res.FullModelErrors() > total/5 {
		t.Errorf("transfer-aware model wrong on %d of %d cells", res.FullModelErrors(), total)
	}

	// Monotonicity of the verdict along the iteration axis: once the
	// GPU truly wins at some iteration count, more iterations keep it
	// winning (transfer only amortizes).
	for _, row := range res.Points {
		won := false
		for _, pt := range row {
			if won && pt.Measured <= 1 {
				t.Errorf("cell f=%d it=%d: GPU lost after winning at fewer iterations",
					pt.FlopsPerElem, pt.Iterations)
			}
			if pt.Measured > 1 {
				won = true
			}
		}
	}
}

func TestDecisionMapRejectsBadAxes(t *testing.T) {
	ctx := getCtx(t)
	if _, err := ctx.DecisionMap(context.Background(), 0, []int{1}, []int{1}); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := ctx.DecisionMap(context.Background(), 64, nil, []int{1}); err == nil {
		t.Error("empty axis accepted")
	}
	if _, err := ctx.DecisionMap(context.Background(), 64, []int{0}, []int{1}); err == nil {
		t.Error("zero flops accepted")
	}
	if _, err := ctx.DecisionMap(context.Background(), 64, []int{1}, []int{0}); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestRenderDecisionMap(t *testing.T) {
	ctx := getCtx(t)
	res, err := ctx.DecisionMap(context.Background(), 256, []int{1, 64}, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	s := RenderDecisionMap(res)
	for _, want := range []string{"Decision map", "flops/element", "kernel-only flips"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestDefaultDecisionAxes(t *testing.T) {
	flops, iters := DefaultDecisionAxes()
	if len(flops) == 0 || len(iters) == 0 {
		t.Fatal("empty default axes")
	}
	for i := 1; i < len(flops); i++ {
		if flops[i] <= flops[i-1] {
			t.Error("flops axis not increasing")
		}
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] <= iters[i-1] {
			t.Error("iteration axis not increasing")
		}
	}
}
