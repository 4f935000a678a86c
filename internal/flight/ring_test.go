package flight

import (
	"fmt"
	"sync"
	"testing"

	"grophecy/internal/trace"
)

// TestRingWrapsOldestFirst: past two full turns of the ring, Entries
// lists exactly the last cap runs, oldest first, and Get resolves
// exactly those IDs.
func TestRingWrapsOldestFirst(t *testing.T) {
	const capacity = 5
	r := MustNew(capacity)
	const adds = 2*capacity + 3
	for i := 0; i < adds; i++ {
		r.Add(entry(i))
	}
	got := r.Entries()
	if len(got) != capacity || r.Len() != capacity {
		t.Fatalf("retained %d (Len %d), want %d", len(got), r.Len(), capacity)
	}
	if r.Evicted() != adds-capacity {
		t.Fatalf("evicted %d, want %d", r.Evicted(), adds-capacity)
	}
	for k, e := range got {
		if want := fmt.Sprintf("run-%d", adds-capacity+k); e.ID != want {
			t.Errorf("Entries()[%d] = %s, want %s", k, e.ID, want)
		}
	}
	for i := 0; i < adds; i++ {
		id := fmt.Sprintf("run-%d", i)
		e, ok := r.Get(id)
		if retained := i >= adds-capacity; ok != retained {
			t.Errorf("Get(%s) ok = %v, want %v", id, ok, retained)
		} else if ok && e.Report.Iterations != i {
			t.Errorf("Get(%s) returned iterations %d, want %d", id, e.Report.Iterations, i)
		}
	}
}

// TestDuplicateIDAcrossWrap: an ID carried by several slots stays
// resolvable, to its newest entry, until the last of them is evicted,
// wherever the slots sit relative to the ring's head.
func TestDuplicateIDAcrossWrap(t *testing.T) {
	r := MustNew(3)
	dup := func(iters int) Entry {
		e := entry(0)
		e.Report.Iterations = iters
		return e
	}
	r.Add(entry(1))
	r.Add(dup(100))
	r.Add(entry(2))
	r.Add(dup(101)) // evicts run-1; run-0 now sits in two slots
	for step, want := range []int{101, 101, 101, -1} {
		e, ok := r.Get("run-0")
		switch {
		case want < 0 && ok:
			t.Fatalf("step %d: run-0 resolvable after its last slot left", step)
		case want >= 0 && (!ok || e.Report.Iterations != want):
			t.Fatalf("step %d: Get(run-0) = %v, %d; want the newest duplicate (%d)", step, ok, e.Report.Iterations, want)
		}
		r.Add(entry(10 + step))
	}
}

// TestBatchTreeReleasedWithLastSlot: the jobs of one batch share one
// request tree, so it goes back to the span pool exactly when the
// last slot that retains it is evicted, and not one eviction before.
func TestBatchTreeReleasedWithLastSlot(t *testing.T) {
	const jobs = 3
	r := MustNew(4)
	tree := closedTracer()
	for j := 0; j < jobs; j++ {
		e := entry(j)
		e.Run = tree.Root()
		r.Add(e)
	}
	tree.Release() // the request is done with its tree
	r.Add(entry(jobs))
	for j := 0; j < jobs; j++ {
		if tree.Released() {
			t.Fatalf("tree released with %d of its %d slots still retained", jobs-j, jobs)
		}
		r.Add(entry(jobs + 1 + j)) // evicts job j's slot
	}
	if !tree.Released() {
		t.Fatal("tree not released after its last slot was evicted")
	}
}

// TestBatchTreeExportRacesAdd runs both trace exporters against Adds
// that evict and release shared batch trees; under -race it checks
// that releasing after the recorder lock never frees a tree an
// exporter can reach.
func TestBatchTreeExportRacesAdd(t *testing.T) {
	r := MustNew(6)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := 0; b < 100; b++ {
			tree := trace.NewRequest("grophecyd", trace.SpanContext{})
			tree.Close()
			for j := 0; j < 4; j++ {
				e := entry(4*b + j)
				e.Run = tree.Root()
				r.Add(e)
			}
			tree.Release()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			for _, e := range r.Entries() {
				if _, err := r.TraceJSON(e.ID); err != nil && err != ErrNoRun {
					t.Errorf("TraceJSON(%s): %v", e.ID, err)
				}
				if _, err := r.WallTraceJSON(e.ID); err != nil && err != ErrNoRun {
					t.Errorf("WallTraceJSON(%s): %v", e.ID, err)
				}
			}
		}
	}()
	wg.Wait()
}
