package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"grophecy/internal/errdefs"
)

// collect is a completion callback that records every result under a
// lock, for tests that read them after Close.
type collect[T any] struct {
	mu      sync.Mutex
	results []PoolResult[T]
}

func (c *collect[T]) done(r PoolResult[T]) {
	c.mu.Lock()
	c.results = append(c.results, r)
	c.mu.Unlock()
}

func TestPoolDeliversEveryResult(t *testing.T) {
	const n = 32
	var c collect[int]
	p := NewPool(context.Background(), 4, n, c.done)
	for i := 0; i < n; i++ {
		p.Submit(i, func() (int, error) { return i * i, nil })
	}
	p.Close()
	seen := make(map[int]int)
	for _, r := range c.results {
		if r.Err != nil {
			t.Errorf("input %d: %v", r.Index, r.Err)
		}
		seen[r.Index] = r.Value
	}
	if len(seen) != n {
		t.Fatalf("got %d results, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		if seen[i] != i*i {
			t.Errorf("seen[%d] = %d, want %d", i, seen[i], i*i)
		}
	}
}

func TestPoolRecoversPanics(t *testing.T) {
	var c collect[string]
	p := NewPool(context.Background(), 2, 2, c.done)
	p.Submit(0, func() (string, error) { panic("kaboom") })
	p.Submit(1, func() (string, error) { return "fine", nil })
	p.Close()
	var panicked, ok bool
	for _, r := range c.results {
		switch r.Index {
		case 0:
			panicked = errors.Is(r.Err, errdefs.ErrPanic)
		case 1:
			ok = r.Err == nil && r.Value == "fine"
		}
	}
	if !panicked {
		t.Error("panicking task did not yield ErrPanic")
	}
	if !ok {
		t.Error("healthy task was poisoned by its neighbour's panic")
	}
}

func TestPoolCancelledTasksComplete(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 8
	var c collect[int]
	p := NewPool(ctx, 2, n, c.done)
	for i := 0; i < n; i++ {
		p.Submit(i, func() (int, error) {
			t.Error("task ran under a cancelled context")
			return 0, nil
		})
	}
	p.Close()
	for _, r := range c.results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("input %d: err = %v, want context.Canceled", r.Index, r.Err)
		}
	}
	if len(c.results) != n {
		t.Fatalf("got %d results, want %d — cancelled submissions must not vanish", len(c.results), n)
	}
}

func TestPoolDynamicSubmission(t *testing.T) {
	// The DAG scheduler's shape: each completion submits the next link
	// of a chain from the worker that finished the previous one, and
	// the submitter closes the pool only once the chain has ended.
	const depth = 10
	var p *Pool[int]
	got := 0 // links complete one at a time, each after the previous
	end := make(chan struct{})
	p = NewPool(context.Background(), 2, depth, func(r PoolResult[int]) {
		if r.Err != nil {
			t.Error(r.Err)
		}
		got++
		if next := r.Index + 1; next < depth && r.Err == nil {
			p.Submit(next, func() (int, error) { return next, nil })
		} else {
			close(end)
		}
	})
	p.Submit(0, func() (int, error) { return 0, nil })
	<-end
	p.Close()
	if got != depth {
		t.Fatalf("chained %d completions, want %d", got, depth)
	}
}

func TestPoolErrorsPassThrough(t *testing.T) {
	var c collect[struct{}]
	p := NewPool(context.Background(), 1, 1, c.done)
	boom := fmt.Errorf("boom")
	p.Submit(7, func() (struct{}, error) { return struct{}{}, boom })
	p.Close()
	if len(c.results) != 1 {
		t.Fatalf("got %d results, want 1", len(c.results))
	}
	if r := c.results[0]; r.Index != 7 || !errors.Is(r.Err, boom) {
		t.Fatalf("result = %+v, want index 7 with boom", r)
	}
}

// TestPoolCompletesOnFinishingWorker: with one worker, a task's
// completion callback returns before the next queued task starts, so
// a submitter that reacts in the callback is never queued behind work
// the pool already holds.
func TestPoolCompletesOnFinishingWorker(t *testing.T) {
	const n = 4
	var order []string
	p := NewPool(context.Background(), 1, n, func(r PoolResult[int]) {
		order = append(order, fmt.Sprintf("done %d", r.Index))
	})
	for i := 0; i < n; i++ {
		p.Submit(i, func() (int, error) {
			order = append(order, fmt.Sprintf("run %d", i))
			return i, nil
		})
	}
	p.Close()
	for i := 0; i < n; i++ {
		if order[2*i] != fmt.Sprintf("run %d", i) || order[2*i+1] != fmt.Sprintf("done %d", i) {
			t.Fatalf("order = %v, want each run followed by its own completion", order)
		}
	}
}
