package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"grophecy/internal/trace"
)

func TestRobustnessOrderingHoldsAcrossSeeds(t *testing.T) {
	res, err := Robustness(context.Background(), DefaultSeed, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips != 0 {
		t.Errorf("error ordering violated on %d seeds", res.Flips)
	}
	// The magnitudes stay in the paper's regime on every instance.
	if res.KernelOnly.Min < 1.0 {
		t.Errorf("kernel-only error dipped to %v", res.KernelOnly.Min)
	}
	if res.Both.Max > 0.15 {
		t.Errorf("combined error rose to %v", res.Both.Max)
	}
	// Cross-seed variance is small: these are 10-run means over many
	// transfers/kernels.
	if cv := res.KernelOnly.CV(); cv > 0.10 {
		t.Errorf("kernel-only CV %v suspiciously large", cv)
	}
}

func TestRobustnessDeterministicAndParallelSafe(t *testing.T) {
	a, err := Robustness(context.Background(), 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Robustness(context.Background(), 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.KernelOnly != b.KernelOnly || a.Both != b.Both {
		t.Error("robustness study not deterministic across runs")
	}
}

func TestRobustnessCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Robustness(ctx, 7, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRobustnessRejectsZeroSeeds(t *testing.T) {
	if _, err := Robustness(context.Background(), 1, 0); err == nil {
		t.Error("zero seeds accepted")
	}
}

func TestRenderRobustness(t *testing.T) {
	res, err := Robustness(context.Background(), DefaultSeed, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := RenderRobustness(res)
	for _, want := range []string{"machine instances", "kernel only", "violations"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestRobustnessTraceWellFormed: the sweep's seeds run concurrently
// under one tracer, as in `paper -robustness N -trace FILE`; each seed
// owns a run, so the tree passes Check.
func TestRobustnessTraceWellFormed(t *testing.T) {
	tracer := trace.New("paper")
	ctx, span := trace.Start(trace.With(context.Background(), tracer), "robustness")
	if _, err := Robustness(ctx, 7, 2); err != nil {
		t.Fatal(err)
	}
	span.End()
	tracer.Close()
	if err := tracer.Check(); err != nil {
		t.Error(err)
	}
}
