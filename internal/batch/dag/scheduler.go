// The topological scheduler: ready jobs dispatch onto a sweep.Pool
// as their parents succeed, a failed (or panicked, or cancelled)
// parent marks its whole descendant cone skipped without running it,
// and completed jobs are surfaced in the graph's deterministic
// emission order.
package dag

import (
	"context"

	"grophecy/internal/sweep"
)

// Hooks are the caller's observation points for one Run. Run is
// required; the rest may be nil.
//
// Ordering guarantees:
//   - Run(i) is invoked only after every parent of i succeeded, on a
//     pool worker goroutine; everything the parents' Run calls wrote
//     is visible to it.
//   - Done, Skip, and Emit are all invoked on the goroutine calling
//     Graph.Run, so they may share state without locking.
//   - Exactly one of Done(i, ...) / Skip(i, ...) fires per job, and
//     Emit(i) fires after it, in the graph's deterministic
//     topological order — a job is emitted only once every job before
//     it in that order has been emitted.
type Hooks struct {
	// Run executes job i; a non-nil error fails the job and skips its
	// descendants.
	Run func(i int) error
	// Done observes job i's terminal result after it ran: err is what
	// Run returned, or the pool's error when the job never executed (a
	// recovered panic, a context cancelled before its turn).
	Done func(i int, err error)
	// Skip observes that job i will never run because parent, a
	// direct parent, failed or was itself skipped. It fires just before
	// Emit(i), once every parent is terminal, and names the first
	// parent in dependency order that did not succeed, so the blame
	// does not depend on which parent happened to finish first.
	Skip func(i, parent int)
	// Emit observes job i becoming reportable, in emission order.
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

// Run executes the whole graph on at most workers goroutines
// (GOMAXPROCS if <= 0) and returns once every job is terminal. It
// never returns early: cancellation of ctx does not abandon
// accounting — queued jobs complete with ctx's error via Done, their
// descendants skip, and every job is still emitted exactly once.
func (g *Graph) Run(ctx context.Context, workers int, h Hooks) {
	n := g.Len()
	if n == 0 {
		return
	}
	pool := sweep.NewPool[struct{}](ctx, workers, n)
	defer pool.Close()

	state := make([]int, n)
	waiting := make([]int, n) // parents not yet succeeded
	remaining := n            // jobs not yet terminal
	emitted := 0

	submit := func(i int) {
		state[i] = stateRunning
		pool.Submit(i, func() (struct{}, error) {
			return struct{}{}, h.Run(i)
		})
	}

	// skipCone marks i and its pending descendants skipped. Recursion
	// depth is bounded by the graph depth, itself bounded by the batch
	// job cap.
	var skipCone func(i int)
	skipCone = func(i int) {
		if state[i] != statePending {
			return
		}
		state[i] = stateSkipped
		remaining--
		for _, c := range g.children[i] {
			skipCone(c)
		}
	}

	// flush emits every terminal job at the head of the emission order.
	// The order is topological, so a job's parents are all terminal by
	// the time it reaches the head.
	flush := func() {
		for emitted < n {
			i := g.order[emitted]
			if state[i] == statePending || state[i] == stateRunning {
				return
			}
			emitted++
			if state[i] == stateSkipped && h.Skip != nil {
				for _, p := range g.parents[i] {
					if state[p] != stateSucceeded {
						h.Skip(i, p)
						break
					}
				}
			}
			if h.Emit != nil {
				h.Emit(i)
			}
		}
	}

	for i := 0; i < n; i++ {
		waiting[i] = len(g.parents[i])
	}
	for i := 0; i < n; i++ {
		if waiting[i] == 0 {
			submit(i)
		}
	}

	for remaining > 0 {
		r := <-pool.Results()
		i := r.Index
		remaining--
		if h.Done != nil {
			h.Done(i, r.Err)
		}
		if r.Err == nil {
			state[i] = stateSucceeded
			for _, c := range g.children[i] {
				waiting[c]--
				if waiting[c] == 0 && state[c] == statePending {
					submit(c)
				}
			}
		} else {
			state[i] = stateFailed
			for _, c := range g.children[i] {
				skipCone(c)
			}
		}
		flush()
	}
}
