// Dynamic-submission worker pool. A dependency-aware caller (the
// batch DAG scheduler) does not know its work-list up front — a job
// becomes runnable only when its parents finish. Pool serves that
// shape: a fixed set of workers consuming tasks submitted one at a
// time, with every completion handed to a callback on the worker that
// finished it, so the submitter reacts (dispatches newly ready work)
// there and then, without waiting for a goroutine of its own to be
// scheduled. Run is the fixed-list special case: submit n, collect by
// index.
//
// Failure semantics match Run: a panicking task is recovered into an
// error wrapping errdefs.ErrPanic, and tasks consumed after the pool
// context is cancelled are not executed — they complete immediately
// with the context's error. Every submitted task produces exactly one
// completion, so a consumer counting submissions never hangs.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"

	"grophecy/internal/obs"
)

// PoolResult is one completed task: the submitter's index, the value,
// and the error (a recovered panic wraps errdefs.ErrPanic; a task
// cancelled before it ran wraps the pool context's error).
type PoolResult[T any] struct {
	Index int
	Value T
	Err   error
}

// poolTask pairs a submitted function with its index.
type poolTask[T any] struct {
	index int
	fn    func() (T, error)
}

// Pool is a dynamically fed worker pool. Create with NewPool, feed
// with Submit, and Close once everything is submitted. The zero value
// is unusable.
type Pool[T any] struct {
	tasks chan poolTask[T]
	wg    sync.WaitGroup
}

// NewPool starts workers goroutines (GOMAXPROCS if workers <= 0)
// consuming submitted tasks. capacity bounds how many submissions can
// be queued without blocking; size it to the total number of tasks
// when that is known — the batch scheduler uses the job count — so
// Submit never blocks, not even when done calls it.
//
// done receives one PoolResult per submitted task, on the worker that
// ran the task (or, for a task cancelled before its turn, the worker
// that consumed it), before that worker takes its next task. It runs
// for panicked and cancelled tasks too, so it sees every submission.
// Calls on different workers run concurrently; done must not panic
// and must not call Close.
func NewPool[T any](ctx context.Context, workers, capacity int, done func(PoolResult[T])) *Pool[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity < 1 {
		capacity = 1
	}
	p := &Pool[T]{tasks: make(chan poolTask[T], capacity)}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer p.wg.Done()
			// pprof labels make sweep workers attributable in real-CPU
			// profiles: `go test -cpuprofile`, or — against a live
			// daemon — the /debug/pprof/profile endpoint grophecyd
			// serves (see docs/OBSERVABILITY.md).
			labels := pprof.Labels("subsystem", "sweep", "sweep_worker", strconv.Itoa(w))
			pprof.Do(ctx, labels, func(context.Context) {
				mWorkers.Add(1)
				defer mWorkers.Add(-1)
				lg := obs.Log(obs.WithPhase(ctx, "sweep"))
				for t := range p.tasks {
					r := PoolResult[T]{Index: t.index}
					if err := ctx.Err(); err != nil {
						r.Err = fmt.Errorf("sweep: input %d not scheduled: %w", t.index, err)
					} else {
						r.Value, r.Err = protect(func(int) (T, error) { return t.fn() }, t.index)
					}
					mTasks.Inc()
					if r.Err != nil {
						mFailures.Inc()
						lg.Warn("sweep input failed", "input", t.index, "err", r.Err.Error())
					}
					done(r)
				}
			})
		}(w)
	}
	return p
}

// Submit enqueues one task. index is echoed on the task's PoolResult;
// it carries no meaning to the pool itself, so duplicate indices are
// the submitter's business. Submit blocks only when more than
// capacity submissions are queued, and must not be called after
// Close.
func (p *Pool[T]) Submit(index int, fn func() (T, error)) {
	p.tasks <- poolTask[T]{index: index, fn: fn}
}

// Close announces that no more tasks will be submitted and waits for
// the workers to drain the queue: in-flight and queued tasks still
// complete (queued tasks complete with an error if the pool context
// is cancelled), and Close returns once every completion callback has
// returned and every worker has exited.
func (p *Pool[T]) Close() {
	close(p.tasks)
	p.wg.Wait()
}
