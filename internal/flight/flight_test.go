package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"grophecy/internal/core"
	"grophecy/internal/trace"
)

func entry(i int) Entry {
	return Entry{
		ID:       fmt.Sprintf("run-%d", i),
		Workload: "HotSpot",
		DataSize: "1024 x 1024",
		Seed:     42,
		Report: core.Report{
			Name: "HotSpot", Iterations: i,
			CPUTime:        1,
			PredKernelTime: 0.25, MeasKernelTime: 0.3,
			PredTransferTime: 0.05, MeasTransferTime: 0.06,
		},
		Start:    time.Unix(1700000000, 0).Add(time.Duration(i) * time.Second),
		Duration: time.Millisecond,
	}
}

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestOldestFirstEviction(t *testing.T) {
	r := MustNew(4)
	for i := 0; i < 10; i++ {
		r.Add(entry(i))
	}
	if r.Len() != 4 {
		t.Fatalf("retained %d entries, want 4", r.Len())
	}
	if r.Evicted() != 6 {
		t.Fatalf("evicted %d entries, want 6", r.Evicted())
	}
	got := r.Entries()
	for i, e := range got {
		want := fmt.Sprintf("run-%d", 6+i)
		if e.ID != want {
			t.Errorf("slot %d holds %s, want %s (oldest-first eviction)", i, e.ID, want)
		}
	}
	// Evicted IDs are gone from the index; retained IDs resolve.
	if _, ok := r.Get("run-0"); ok {
		t.Error("evicted run-0 still resolvable")
	}
	if e, ok := r.Get("run-9"); !ok || e.Report.Iterations != 9 {
		t.Errorf("retained run-9 lookup: ok=%v entry=%+v", ok, e)
	}
}

// TestDuplicateIDSurvivesEviction is the index regression: when slot
// 0 is evicted, its ID must stay resolvable if a younger slot carries
// the same ID — the old code deleted the index entry uncondition-
// ally, orphaning the still-retained duplicate.
func TestDuplicateIDSurvivesEviction(t *testing.T) {
	r := MustNew(2)
	v1 := entry(0)
	v2 := entry(0) // same ID "run-0", distinguishable by Iterations
	v2.Report.Iterations = 77
	r.Add(v1)
	r.Add(v2)

	// The third Add evicts slot 0 (v1); "run-0" must still resolve to
	// v2, which occupies the surviving slot.
	r.Add(entry(1))
	e, ok := r.Get("run-0")
	if !ok {
		t.Fatal("duplicate-ID entry became unreachable after evicting the older duplicate")
	}
	if e.Report.Iterations != 77 {
		t.Fatalf("Get(run-0) returned the evicted duplicate (iterations %d, want 77)", e.Report.Iterations)
	}

	// Once the last duplicate leaves the ring, the index entry goes too.
	r.Add(entry(2))
	if _, ok := r.Get("run-0"); ok {
		t.Fatal("run-0 still resolvable after every duplicate was evicted")
	}
	if r.Len() != 2 {
		t.Fatalf("retained %d entries, want 2", r.Len())
	}
}

func TestConcurrentFillPastCapacity(t *testing.T) {
	const (
		writers = 8
		each    = 50
		cap     = 16
	)
	r := MustNew(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Add(entry(w*each + i))
				// Interleave reads with writes to exercise the lock.
				r.Entries()
				r.Get(fmt.Sprintf("run-%d", w*each+i))
				r.Len()
			}
		}(w)
	}
	wg.Wait()

	if r.Len() != cap {
		t.Fatalf("retained %d entries, want %d", r.Len(), cap)
	}
	if r.Evicted() != writers*each-cap {
		t.Fatalf("evicted %d, want %d", r.Evicted(), writers*each-cap)
	}
	// Every retained entry must be resolvable by its own ID, and the
	// ring and index must agree exactly.
	for _, e := range r.Entries() {
		got, ok := r.Get(e.ID)
		if !ok {
			t.Fatalf("retained %s not in index", e.ID)
		}
		if got.Report.Iterations != e.Report.Iterations {
			t.Fatalf("index entry for %s differs from ring entry", e.ID)
		}
	}
}

func TestHTTPSurface(t *testing.T) {
	r := MustNew(8)
	tr := trace.New("test")
	tr.Close()
	ok := entry(1)
	ok.Run = tr.Root()
	r.Add(ok)
	r.Add(Entry{ID: "run-2", Workload: "CFD", Err: "boom", Start: time.Unix(1700000001, 0)})

	mux := http.NewServeMux()
	r.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var idx index
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if idx.Retained != 2 || len(idx.Runs) != 2 {
		t.Fatalf("index retained=%d runs=%d, want 2/2", idx.Retained, len(idx.Runs))
	}
	if idx.Runs[0].ID != "run-2" || idx.Runs[1].ID != "run-1" {
		t.Fatalf("index not newest-first: %s, %s", idx.Runs[0].ID, idx.Runs[1].ID)
	}
	if idx.Runs[0].Err != "boom" {
		t.Fatalf("failed run's error invisible in index: %+v", idx.Runs[0])
	}
	if !idx.Runs[1].HasTrace {
		t.Fatalf("run-1 trace invisible in index: %+v", idx.Runs[1])
	}

	// Report of a successful run.
	resp, err = http.Get(srv.URL + "/runs/run-1")
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep["Name"] != "HotSpot" {
		t.Fatalf("report JSON wrong: %v", rep)
	}

	// Trace of a successful run.
	resp, err = http.Get(srv.URL + "/runs/run-1/trace")
	if err != nil {
		t.Fatal(err)
	}
	var ct trace.ChromeTrace
	if err := json.NewDecoder(resp.Body).Decode(&ct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ct.TraceEvents) == 0 {
		t.Fatal("trace export empty")
	}

	// Missing run and missing trace both 404.
	for _, path := range []string{"/runs/run-99", "/runs/run-2/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
}
