package golden

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/sklang"
	"grophecy/internal/trace"
)

// TestSpanTreeWellFormed runs the instrumented pipeline on every
// example skeleton in the repository and asserts the resulting trace
// tree satisfies the structural invariants: every span closed,
// non-negative durations, children nested inside their parent,
// sibling start times monotone, and child durations summing to no
// more than the parent's. It also pins the tentpole acceptance
// property: the root span's simulated duration equals the report's
// total projected GPU time.
func TestSpanTreeWellFormed(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "skeletons", "*.sk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example skeletons found")
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			tracer := trace.New("grophecy")
			ctx := trace.With(context.Background(), tracer)
			p, err := core.New(context.Background(), core.NewMachine(experiments.DefaultSeed), core.Options{})
			if err != nil {
				t.Fatal(err)
			}

			var predTotal float64
			w, err := sklang.ParseFile(file)
			switch {
			case err == nil:
				rep, err := p.EvaluateCtx(ctx, w)
				if err != nil {
					t.Fatal(err)
				}
				predTotal = rep.PredTotalGPU()
			case errors.Is(err, sklang.ErrNotWorkload):
				pw, err := sklang.ParseProgramFile(file)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := p.EvaluateProgramCtx(ctx, pw.Prog, pw.CPU)
				if err != nil {
					t.Fatal(err)
				}
				pk, _, px, _ := rep.Totals()
				predTotal = pk + px
			default:
				t.Fatal(err)
			}

			tracer.Close()
			if err := tracer.Check(); err != nil {
				t.Fatalf("trace ill-formed: %v", err)
			}

			root := tracer.Root().Interval()
			if root.Start != 0 {
				t.Errorf("root starts at %g, want 0", root.Start)
			}
			if math.Abs(root.Duration-predTotal) > 1e-9*(1+predTotal) {
				t.Errorf("root duration %g != total projected GPU time %g",
					root.Duration, predTotal)
			}

			// Every span's interval lies inside the root's, and the
			// tree has real structure (more than just the root).
			spans := 0
			tracer.Walk(func(s *trace.Span, depth int) {
				spans++
				iv := s.Interval()
				if iv.Duration < 0 {
					t.Errorf("span %q has negative duration %g", s.Name(), iv.Duration)
				}
				if !root.Contains(iv) {
					t.Errorf("span %q [%g, %g] outside the root interval", s.Name(), iv.Start, iv.End())
				}
			})
			if spans < 3 {
				t.Errorf("only %d spans recorded; pipeline not instrumented?", spans)
			}
		})
	}
}

// TestTraceDeterminism runs the same skeleton twice on fresh machines
// and requires byte-identical Chrome exports — the "same seed, same
// trace" guarantee docs/OBSERVABILITY.md promises.
func TestTraceDeterminism(t *testing.T) {
	runOnce := func() []byte {
		tracer := trace.New("grophecy")
		ctx := trace.With(context.Background(), tracer)
		w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", "hotspot.sk"))
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.New(context.Background(), core.NewMachine(experiments.DefaultSeed), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.EvaluateCtx(ctx, w); err != nil {
			t.Fatal(err)
		}
		tracer.Close()
		data, err := tracer.ChromeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := runOnce(), runOnce()
	if string(a) != string(b) {
		t.Error("two runs at the same seed exported different traces")
	}
}
