// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md §4 maps each to its experiment).
//
// Each benchmark times regenerating its table/figure on the shared
// simulated machine and reports domain-specific metrics (error
// percentages, speedups) via b.ReportMetric, computed once on a
// freshly seeded machine so they do not depend on run order, so
//
//	go test -bench=. -benchmem
//
// both exercises the full pipeline and prints the headline numbers.
package grophecy_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/stats"
	"grophecy/internal/trace"
)

func findHotSpot() (core.Workload, error) {
	for _, w := range bench.MustAll() {
		if w.Name == "HotSpot" && w.DataSize == "1024 x 1024" {
			return w, nil
		}
	}
	return core.Workload{}, fmt.Errorf("HotSpot workload missing")
}

var (
	ctxOnce sync.Once
	ctx     *experiments.Context
	ctxErr  error
)

// sharedCtx builds the simulated machine and calibrated projector
// once; the per-benchmark work is the experiment itself.
func sharedCtx(b *testing.B) *experiments.Context {
	b.Helper()
	ctxOnce.Do(func() {
		ctx, ctxErr = experiments.NewContext(experiments.DefaultSeed)
		if ctxErr == nil {
			// Pre-evaluate the ten workloads so report-based
			// experiments measure extraction, not first-call
			// evaluation.
			_, ctxErr = ctx.Reports(context.Background())
		}
	})
	if ctxErr != nil {
		b.Fatal(ctxErr)
	}
	return ctx
}

// metricCtx builds a freshly seeded machine and projector for
// computing a benchmark's domain metrics once, outside its timed
// loop. sharedCtx's noise streams have been moved by whichever
// benchmarks ran before it, by amounts that depend on b.N.
func metricCtx(b *testing.B) *experiments.Context {
	b.Helper()
	c, err := experiments.NewContext(experiments.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkFig2TransferSweep(b *testing.B) {
	c := sharedCtx(b)
	for i := 0; i < b.N; i++ {
		rows, err := c.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 30 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFig3PinnedSpeedup(b *testing.B) {
	rows, err := metricCtx(b).Fig3()
	if err != nil {
		b.Fatal(err)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].SpeedupH2D, "pinned-speedup-512MB")
}

func BenchmarkFig4ModelError(b *testing.B) {
	_, sums, err := metricCtx(b).Fig4()
	if err != nil {
		b.Fatal(err)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*sums[0].MeanErr, "mean-err-C2G-%")
	b.ReportMetric(100*sums[1].MeanErr, "mean-err-G2C-%")
}

func BenchmarkTable1Measured(b *testing.B) {
	rows, err := metricCtx(b).Table1(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	var xs []float64
	for _, r := range rows {
		xs = append(xs, r.PercentTransfer)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Table1(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*stats.Mean(xs), "mean-transfer-share-%")
}

func BenchmarkFig5AppTransfers(b *testing.B) {
	_, meanErr, err := metricCtx(b).Fig5(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Fig5(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*meanErr, "mean-transfer-err-%")
}

func BenchmarkFig6ErrorScatter(b *testing.B) {
	c := sharedCtx(b)
	for i := 0; i < b.N; i++ {
		points, err := c.Fig6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 10 {
			b.Fatalf("points = %d", len(points))
		}
	}
}

func benchSpeedupBySize(b *testing.B, app string) {
	rows, err := metricCtx(b).SpeedupBySize(context.Background(), app)
	if err != nil {
		b.Fatal(err)
	}
	var worstKernelOnly float64
	for _, r := range rows {
		worstKernelOnly = max(worstKernelOnly, r.ErrKernel)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SpeedupBySize(context.Background(), app); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*worstKernelOnly, "worst-kernel-only-err-%")
}

func BenchmarkFig7CFD(b *testing.B)     { benchSpeedupBySize(b, "CFD") }
func BenchmarkFig9HotSpot(b *testing.B) { benchSpeedupBySize(b, "HotSpot") }
func BenchmarkFig11SRAD(b *testing.B)   { benchSpeedupBySize(b, "SRAD") }

func benchIterSweep(b *testing.B, app, size string, iters []int) {
	sweep, err := metricCtx(b).IterationSweep(context.Background(), app, size, iters)
	if err != nil {
		b.Fatal(err)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.IterationSweep(context.Background(), app, size, iters); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*stats.ErrorMagnitude(sweep.LimitPred, sweep.LimitMeasured), "limit-err-%")
}

func BenchmarkFig8CFDIters(b *testing.B) {
	benchIterSweep(b, "CFD", "233K", []int{1, 2, 4, 8, 16, 32, 64})
}

func BenchmarkFig10HotSpotIters(b *testing.B) {
	benchIterSweep(b, "HotSpot", "1024 x 1024", []int{1, 4, 16, 64, 256})
}

func BenchmarkFig12SRADIters(b *testing.B) {
	benchIterSweep(b, "SRAD", "4096 x 4096", []int{1, 4, 16, 64, 256, 512})
}

func BenchmarkStassuij(b *testing.B) {
	res, err := metricCtx(b).Stassuij(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stassuij(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PredKernelOnly, "kernel-only-speedup")
	b.ReportMetric(res.Measured, "measured-speedup")
	b.ReportMetric(res.PredFull, "grophecypp-speedup")
}

func BenchmarkTable2SpeedupError(b *testing.B) {
	res, err := metricCtx(b).Table2(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Table2(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.AvgApps.KernelOnly, "kernel-only-err-%")
	b.ReportMetric(100*res.AvgApps.TransferOnly, "transfer-only-err-%")
	b.ReportMetric(100*res.AvgApps.Both, "combined-err-%")
}

// BenchmarkFutureWorkPlanning runs the §VII future-work analyses:
// per-array memory-kind planning with allocation overhead, plus the
// §III-B batching tradeoff, over all ten workloads.
func BenchmarkFutureWorkPlanning(b *testing.B) {
	rows, err := metricCtx(b).FutureWork()
	if err != nil {
		b.Fatal(err)
	}
	var best float64
	for _, r := range rows {
		best = max(best, r.PlanSavings())
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FutureWork(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*best, "best-plan-saving-%")
}

// BenchmarkDecisionMap sweeps the port-verdict map over workload
// space (the decision-support extension of the paper's conclusion).
func BenchmarkDecisionMap(b *testing.B) {
	flops, iters := experiments.DefaultDecisionAxes()
	res, err := metricCtx(b).DecisionMap(context.Background(), 1024, flops, iters)
	if err != nil {
		b.Fatal(err)
	}
	c := sharedCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecisionMap(context.Background(), 1024, flops, iters); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.FlipCount()), "kernel-only-flips")
	b.ReportMetric(float64(res.FullModelErrors()), "full-model-misses")
}

// BenchmarkRobustness re-evaluates Table II on independent machine
// instances in parallel.
func BenchmarkRobustness(b *testing.B) {
	var res experiments.RobustnessResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Robustness(context.Background(), experiments.DefaultSeed, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Flips), "ordering-violations")
}

// BenchmarkEndToEndProjection measures the full pipeline cost for one
// workload — calibration excluded, exploration + analysis + model +
// measurement included. This is the "how long does a projection take"
// number a GROPHECY++ user cares about.
func BenchmarkEndToEndProjection(b *testing.B) {
	c := sharedCtx(b)
	w, err := findHotSpot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.P.Evaluate(context.Background(), w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndProjectionTelemetry is the same projection under
// the request tracer grophecyd installs: a fresh request tree, one run
// span under its root, the engine's simulated and stage spans, the
// close, and the release a finished request ends with — so the
// snapshot records what request tracing costs on top of
// BenchmarkEndToEndProjection.
func BenchmarkEndToEndProjectionTelemetry(b *testing.B) {
	c := sharedCtx(b)
	w, err := findHotSpot()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tracedProjection(c.P, w); err != nil {
			b.Fatal(err)
		}
	}
}

// tracedProjection runs one projection the way a grophecyd request
// does: under a request tracer, inside a run span.
func tracedProjection(p *core.Projector, w core.Workload) error {
	tr := trace.NewRequest("bench", trace.SpanContext{})
	ctx, run := trace.StartRun(trace.With(context.Background(), tr), "bench")
	_, err := p.Evaluate(ctx, w)
	run.End()
	tr.Close()
	tr.Release()
	return err
}

// BenchmarkTelemetryOverhead measures what the request tracer costs
// *relative to the bare projection*, as an overhead-pct metric the
// regression gate bounds directly: `make bench-gate` holds the median
// of the head runs to `benchjson ab -metric-max`, default
// TelemetryOverhead:overhead-pct=5.
//
// Bare and traced projections are interleaved in small alternating
// blocks inside one timing loop, so both sides sample the same
// seconds of machine weather and the load state divides out of the
// ratio — unlike a cross-run (or even cross-benchmark) ns/op
// comparison, which on a shared 1-CPU host swings ±25% with
// neighboring load. One op is one projection; ns/op reported for this
// benchmark is the blended bare+traced cost, which the gate compares
// against the base revision like every other benchmark's.
func BenchmarkTelemetryOverhead(b *testing.B) {
	c := sharedCtx(b)
	w, err := findHotSpot()
	if err != nil {
		b.Fatal(err)
	}
	const block = 8 // projections per side before switching
	var bareNs, tracedNs time.Duration
	var bareN, tracedN int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i/block%2 == 0 {
			start := time.Now()
			_, err := c.P.Evaluate(context.Background(), w)
			bareNs += time.Since(start)
			bareN++
			if err != nil {
				b.Fatal(err)
			}
		} else {
			start := time.Now()
			err := tracedProjection(c.P, w)
			tracedNs += time.Since(start)
			tracedN++
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if bareN > 0 && tracedN > 0 {
		bare := float64(bareNs) / float64(bareN)
		traced := float64(tracedNs) / float64(tracedN)
		b.ReportMetric((traced/bare-1)*100, "overhead-pct")
	}
}
