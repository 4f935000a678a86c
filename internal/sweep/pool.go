// Dynamic-submission worker pool. A dependency-aware caller (the
// batch DAG scheduler) does not know its work-list up front — a job
// becomes runnable only when its parents finish. Pool serves that
// shape: a fixed set of workers consuming tasks submitted one at a
// time, with every completion delivered on a results channel so the
// submitter can react (dispatch newly ready work) before the pool
// drains. RunCtx is the fixed-list special case: submit n, collect by
// index.
//
// Failure semantics match RunCtx: a panicking task is recovered into an
// error wrapping errdefs.ErrPanic, and tasks consumed after the pool
// context is cancelled are not executed — they complete immediately
// with the context's error. Every submitted task produces exactly one
// result, so a consumer counting submissions never hangs.
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
// with Submit, consume Results, and Close once everything is
// submitted. The zero value is unusable.
type Pool[T any] struct {
	ctx     context.Context
	tasks   chan poolTask[T]
	results chan PoolResult[T]
	wg      sync.WaitGroup
}

// NewPool starts workers goroutines (GOMAXPROCS if workers <= 0)
// consuming submitted tasks. capacity bounds how many submissions can
// be in flight (queued + unconsumed results) without blocking; size
// it to the total number of tasks when that is known — the batch
// scheduler uses the job count — so Submit and result delivery never
// block each other.
func NewPool[T any](ctx context.Context, workers, capacity int) *Pool[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if capacity < 1 {
		capacity = 1
	}
	p := &Pool[T]{
		ctx:     ctx,
		tasks:   make(chan poolTask[T], capacity),
		results: make(chan PoolResult[T], capacity),
	}
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
					p.results <- r
				}
			})
		}(w)
	}
	go func() {
		p.wg.Wait()
		close(p.results)
	}()
	return p
}

// Submit enqueues one task. index is echoed on the task's PoolResult;
// it carries no meaning to the pool itself, so duplicate indices are
// the submitter's business. Submit blocks only when more than
// capacity submissions are outstanding, and must not be called after
// Close.
func (p *Pool[T]) Submit(index int, fn func() (T, error)) {
	p.tasks <- poolTask[T]{index: index, fn: fn}
}

// Results delivers one PoolResult per submitted task, in completion
// order. The channel closes after Close once every accepted task has
// completed.
func (p *Pool[T]) Results() <-chan PoolResult[T] {
	return p.results
}

// Close announces that no more tasks will be submitted. In-flight and
// queued tasks still complete (queued tasks complete with an error if
// the pool context is cancelled); Results closes once they have all
// been delivered.
func (p *Pool[T]) Close() {
	close(p.tasks)
}
