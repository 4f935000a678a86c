package flight

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"grophecy/internal/trace"
)

// closedTracer builds a small finished simulated trace.
func closedTracer() *trace.Tracer {
	tr := trace.New("run")
	tr.Close()
	return tr
}

// addRun records e with tr's root as its run and then drops the
// creator's hold, the way a request hands its tree to the ring when
// it finishes.
func addRun(r *Recorder, e Entry, tr *trace.Tracer) {
	e.Run = tr.Root()
	r.Add(e)
	tr.Release()
}

// TestEvictionReleasesTrace is the PR 7 leak regression: the flight
// ring was the one place that retained simulated trace trees forever,
// never returning their pooled spans. Eviction must release them.
func TestEvictionReleasesTrace(t *testing.T) {
	r := MustNew(2)
	tracers := make([]*trace.Tracer, 4)
	for i := range tracers {
		tracers[i] = closedTracer()
		addRun(r, entry(i), tracers[i])
	}
	for i, tr := range tracers {
		if evicted := i < 2; tr.Released() != evicted {
			t.Errorf("tracer %d released = %v, want %v", i, tr.Released(), evicted)
		}
	}
	// The retained traces still export.
	if _, err := r.TraceJSON("run-3"); err != nil {
		t.Fatalf("retained trace failed to export: %v", err)
	}
	// The evicted run (and with it, its trace) is gone.
	if _, err := r.TraceJSON("run-0"); err != ErrNoRun {
		t.Fatalf("evicted run export error = %v, want ErrNoRun", err)
	}
}

// TestEvictionSparesSharedTracer: when two ring slots share one
// tree (duplicate adds of the same run, or two jobs of one batch),
// evicting the older slot must not release spans the younger still
// references.
func TestEvictionSparesSharedTracer(t *testing.T) {
	r := MustNew(2)
	shared := closedTracer()
	a, b := entry(0), entry(0)
	a.Run, b.Run = shared.Root(), shared.Root()
	r.Add(a)
	r.Add(b)
	shared.Release() // the request is done with the tree
	r.Add(entry(1))  // evicts a; b still holds shared
	if shared.Released() {
		t.Fatal("shared tracer released while a retained slot still references it")
	}
	r.Add(entry(2)) // evicts b; now the trace's life has ended
	if !shared.Released() {
		t.Fatal("shared tracer not released after its last reference left the ring")
	}
}

// TestEvictionWaitsForRequest: a tree evicted from the ring while its
// request still holds it (for the OTLP export) survives until the
// request lets go.
func TestEvictionWaitsForRequest(t *testing.T) {
	r := MustNew(1)
	tr := closedTracer()
	e := entry(0)
	e.Run = tr.Root()
	r.Add(e)
	r.Add(entry(1)) // evicts run-0 while the request still holds tr
	if tr.Released() {
		t.Fatal("tree released while its request still holds it")
	}
	if _, err := tr.OTLP(); err != nil {
		t.Fatal(err)
	}
	tr.Release()
	if !tr.Released() {
		t.Fatal("tree not released after the request let go")
	}
}

// TestExportRacesEviction hammers TraceJSON against concurrent
// eviction; under -race this is the regression test for exporting a
// Get()-copied tracer while Add releases it.
func TestExportRacesEviction(t *testing.T) {
	r := MustNew(4)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			addRun(r, entry(i), closedTracer())
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			// Export whatever is currently retained.
			for _, e := range r.Entries() {
				r.TraceJSON(e.ID)
				r.WallTraceJSON(e.ID)
			}
		}
	}()
	wg.Wait()
}

func TestWallTraceEndpoint(t *testing.T) {
	r := MustNew(4)
	wt := trace.NewRequest("grophecyd", trace.SpanContext{})
	ctx, run := trace.StartRun(trace.With(context.Background(), wt), "grophecyd")
	_, stage := trace.StartWall(ctx, "stage.kernels")
	stage.End()
	run.End()
	wt.Close()
	e := entry(1)
	e.Run = run
	r.Add(e)
	r.Add(entry(2)) // no wall trace

	mux := http.NewServeMux()
	r.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/runs/run-1/walltrace")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
					Name    string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 3 || spans[0].TraceID != wt.TraceID().String() || spans[2].Name != "stage.kernels" {
		t.Fatalf("walltrace spans = %+v, want the request root, run and stage of trace %s", spans, wt.TraceID())
	}
	// The simulated export of the same run leaves the service span out.
	chrome, err := r.TraceJSON("run-1")
	if err != nil {
		t.Fatal(err)
	}
	var ct trace.ChromeTrace
	if err := json.Unmarshal(chrome, &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 2 || ct.TraceEvents[1].Name != "grophecyd" {
		t.Fatalf("run trace events = %+v, want metadata and the run span", ct.TraceEvents)
	}

	// Index advertises the wall trace and its trace ID.
	resp, err = http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var idx index
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var found bool
	for _, run := range idx.Runs {
		if run.ID == "run-1" {
			found = true
			if !run.HasWallTrace || run.TraceID != wt.TraceID().String() {
				t.Fatalf("index row for run-1: %+v", run)
			}
		}
	}
	if !found {
		t.Fatal("run-1 missing from index")
	}

	// A run without a wall trace, and an unknown run, both 404.
	for _, path := range []string{"/runs/run-2/walltrace", "/runs/run-99/walltrace"} {
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
