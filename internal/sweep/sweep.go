// Package sweep provides the repository's one fan-out primitive: a
// dynamically fed worker pool (Pool) and the deterministic parallel
// map built on it (RunCtx).
//
// Experiments in this repository are single-machine-deterministic: a
// given seed always produces the same numbers. Sweeps over *many*
// machine instances (seed-sensitivity studies, architecture grids)
// are embarrassingly parallel — each point owns its own simulated
// machine — so they run on a bounded worker pool. Results come back
// in input order regardless of scheduling, preserving determinism.
//
// Failure semantics: every input is attempted (unless the context is
// cancelled first), every failure is kept, and all failures are
// aggregated with errors.Join — no first-error-wins truncation. A
// panicking worker function is recovered into an error carrying the
// panic value and the goroutine stack (errdefs.ErrPanic), so one bad
// input cannot take down a whole sweep.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"

	"grophecy/internal/errdefs"
	"grophecy/internal/metrics"
)

// Sweep instruments: task and failure counts plus the number of live
// workers, so a -metrics dump shows how parallel a run actually was.
var (
	mTasks = metrics.Default.MustCounter("sweep_tasks_total",
		"sweep inputs attempted")
	mFailures = metrics.Default.MustCounter("sweep_failures_total",
		"sweep inputs that returned an error (panics included)")
	mWorkers = metrics.Default.MustGauge("sweep_workers",
		"sweep worker goroutines currently running")
)

// RunCtx maps fn over n inputs on a Pool of at most workers
// goroutines (GOMAXPROCS if workers <= 0) and returns the n results
// in input order. All worker errors are aggregated with errors.Join,
// each wrapped with its input index; on any error the result slice is
// nil. Once ctx is cancelled no further inputs start (in-flight calls
// run to completion) and ctx's error is joined into the returned
// error.
//
// fn must be safe to call concurrently for distinct indices (each
// index should own its state — e.g. its own simulated machine).
func RunCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, errdefs.Invalidf("sweep: negative input count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := NewPool[T](ctx, min(workers, n), n)
	// ran[i] is written by the worker before it delivers input i's
	// result, and read only after receiving that result.
	ran := make([]bool, n)
	for i := 0; i < n; i++ {
		pool.Submit(i, func() (T, error) {
			ran[i] = true
			return fn(i)
		})
	}
	pool.Close()
	results := make([]T, n)
	errs := make([]error, n)
	for r := range pool.Results() {
		results[r.Index], errs[r.Index] = r.Value, r.Err
	}
	joined := make([]error, 0, n+1)
	for i := range ran {
		if !ran[i] {
			joined = append(joined, ctx.Err())
			break
		}
	}
	for i, err := range errs {
		if err != nil && ran[i] {
			joined = append(joined, fmt.Errorf("sweep: input %d: %w", i, err))
		}
	}
	if err := errors.Join(joined...); err != nil {
		return nil, err
	}
	return results, nil
}

// protect invokes fn(i), converting a panic into an error that wraps
// errdefs.ErrPanic and carries the recovered value plus the stack.
func protect[T any](fn func(i int) (T, error), i int) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			result = zero
			err = fmt.Errorf("%w: %v\n%s", errdefs.ErrPanic, r, debug.Stack())
		}
	}()
	return fn(i)
}
