// The topological scheduler: ready jobs dispatch onto a sweep.Pool
// as their parents succeed, a failed (or panicked, or cancelled)
// parent marks its whole descendant cone skipped without running it,
// and completed jobs are surfaced in the graph's deterministic
// emission order.
//
// There is no coordinator goroutine. Each job's completion runs on
// the pool worker that finished it: the worker updates the shared
// state, dispatches the children that became ready and advances the
// emittable prefix under one short lock, then — if no other worker is
// emitting — writes that prefix itself, outside the lock. A worker
// that keeps taking jobs can therefore never starve the rows it
// produced, and a slow Emit holds up only the worker that runs it.
package dag

import (
	"context"
	"sync"

	"grophecy/internal/sweep"
)

// Hooks are the caller's observation points for one Run. Run is
// required; the rest may be nil.
//
// Ordering guarantees:
//   - Run(i) is invoked only after every parent of i succeeded, on a
//     pool worker goroutine; everything the parents' Run calls wrote
//     is visible to it.
//   - Done and Skip run on pool workers, under the scheduler's state
//     lock: they are serialized with each other, so they may share
//     state without locking, and must be short.
//   - Emit also runs on pool workers, serialized and in emission
//     order, but never under the state lock: it may run concurrently
//     with Run, Done and Skip for other jobs. Everything Run(i),
//     Done(i) and Skip(i) wrote is visible to Emit(i).
//   - Exactly one of Done(i, ...) / Skip(i, ...) fires per job, and
//     Emit(i) fires after it, in the graph's deterministic
//     topological order — a job is emitted only once every job before
//     it in that order has been emitted.
//   - No hook runs after Graph.Run returns.
type Hooks struct {
	// Run executes job i; a non-nil error fails the job and skips its
	// descendants.
	Run func(i int) error
	// Done observes job i's terminal result after it ran: err is what
	// Run returned, or the pool's error when the job never executed (a
	// recovered panic, a context cancelled before its turn).
	Done func(i int, err error)
	// Skip observes that job i will never run because parent, a
	// direct parent, failed or was itself skipped. It fires before
	// Emit(i), once every parent is terminal, and names the first
	// parent in dependency order that did not succeed, so the blame
	// does not depend on which parent happened to finish first.
	Skip func(i, parent int)
	// Emit observes job i becoming reportable, in emission order. A
	// slow Emit delays later Emits only: the other workers keep
	// finishing jobs and dispatching their children meanwhile.
	Emit func(i int)
}

// Job states tracked by Run. Skipped and the two run-terminal states
// are all "terminal" for emission purposes.
const (
	statePending = iota
	stateRunning
	stateSucceeded
	stateFailed
	stateSkipped
)

// scheduler is one Run's shared state. Every field after mu is
// guarded by it.
type scheduler struct {
	g        *Graph
	h        Hooks
	pool     *sweep.Pool[struct{}]
	finished chan struct{} // closed once the last job is emitted

	mu       sync.Mutex
	state    []int
	waiting  []int // parents not yet succeeded
	ready    int   // g.order[:ready] is terminal and has had its Skip
	emitted  int   // g.order[:emitted] has had its Emit
	emitting bool  // a worker holds the emit turn
}

// Run executes the whole graph on at most workers goroutines
// (GOMAXPROCS if <= 0) and returns once every job is terminal and
// emitted. Completion, dispatch and emission all run on the pool
// worker that finished a job; the calling goroutine only submits the
// roots and waits. Run never returns early: cancellation of ctx does
// not abandon accounting — queued jobs complete with ctx's error via
// Done, their descendants skip, and every job is still emitted
// exactly once.
func (g *Graph) Run(ctx context.Context, workers int, h Hooks) {
	n := g.Len()
	if n == 0 {
		return
	}
	s := &scheduler{
		g:        g,
		h:        h,
		finished: make(chan struct{}),
		state:    make([]int, n),
		waiting:  make([]int, n),
	}
	s.pool = sweep.NewPool(ctx, workers, n, s.complete)
	s.mu.Lock()
	for i := 0; i < n; i++ {
		if s.waiting[i] = len(g.parents[i]); s.waiting[i] == 0 {
			s.submitLocked(i)
		}
	}
	s.mu.Unlock()
	<-s.finished
	s.pool.Close()
}

// submitLocked dispatches job i. The pool's capacity is the job
// count, so Submit never blocks under the lock.
func (s *scheduler) submitLocked(i int) {
	s.state[i] = stateRunning
	s.pool.Submit(i, func() (struct{}, error) {
		return struct{}{}, s.h.Run(i)
	})
}

// complete is the pool's completion callback, run on the worker that
// finished job r.Index.
func (s *scheduler) complete(r sweep.PoolResult[struct{}]) {
	i := r.Index
	s.mu.Lock()
	if s.h.Done != nil {
		s.h.Done(i, r.Err)
	}
	if r.Err == nil {
		s.state[i] = stateSucceeded
		for _, c := range s.g.children[i] {
			s.waiting[c]--
			if s.waiting[c] == 0 && s.state[c] == statePending {
				s.submitLocked(c)
			}
		}
	} else {
		s.state[i] = stateFailed
		for _, c := range s.g.children[i] {
			s.skipConeLocked(c)
		}
	}
	s.advanceLocked()
	if s.emitting || s.emitted == s.ready {
		s.mu.Unlock()
		return
	}
	// Take the emit turn and write the emittable prefix outside the
	// lock, picking up whatever other workers made emittable while it
	// was being written.
	s.emitting = true
	for s.emitted < s.ready {
		from, to := s.emitted, s.ready
		s.mu.Unlock()
		if s.h.Emit != nil {
			for _, j := range s.g.order[from:to] {
				s.h.Emit(j)
			}
		}
		s.mu.Lock()
		s.emitted = to
	}
	s.emitting = false
	last := s.emitted == len(s.state)
	s.mu.Unlock()
	if last {
		close(s.finished)
	}
}

// skipConeLocked marks i and its pending descendants skipped.
// Recursion depth is bounded by the graph depth, itself bounded by
// the batch job cap.
func (s *scheduler) skipConeLocked(i int) {
	if s.state[i] != statePending {
		return
	}
	s.state[i] = stateSkipped
	for _, c := range s.g.children[i] {
		s.skipConeLocked(c)
	}
}

// advanceLocked extends the emittable prefix over every terminal job
// at its head, firing Skip for the skipped ones. The order is
// topological, so a job's parents are all terminal by the time it
// reaches the head.
func (s *scheduler) advanceLocked() {
	for s.ready < len(s.state) {
		i := s.g.order[s.ready]
		st := s.state[i]
		if st == statePending || st == stateRunning {
			return
		}
		s.ready++
		if st == stateSkipped && s.h.Skip != nil {
			for _, p := range s.g.parents[i] {
				if s.state[p] != stateSucceeded {
					s.h.Skip(i, p)
					break
				}
			}
		}
	}
}
