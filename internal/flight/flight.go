// Package flight is the projection daemon's flight recorder: a
// bounded, concurrency-safe ring buffer of the last N completed
// projection runs, kept for postmortem inspection. A failed or slow
// projection can be pulled back out — report, span tree, error — via
// the HTTP handlers in http.go without re-running it.
//
// The recorder holds completed runs only; an entry is added exactly
// once, after its run finishes (successfully or not), so readers
// never observe a half-filled entry.
package flight

import (
	"fmt"
	"sync"
	"time"

	"grophecy/internal/core"
	"grophecy/internal/trace"
)

// Entry is one completed projection run.
type Entry struct {
	// ID is the run ID ("run-7"), as a /project response's X-Run-Id
	// header and a batch row's runId name it.
	ID string
	// Workload and DataSize identify what was projected.
	Workload string
	DataSize string
	// Source is the skeleton source text as submitted.
	Source string
	// Seed is the simulated machine seed the run used.
	Seed uint64
	// JobID and DependsOn record the run's position in its batch DAG
	// when it was one job of a dependency-aware POST /batch: the job's
	// declared id and the ids of the jobs it depended on. Both empty
	// outside DAG batches.
	JobID     string
	DependsOn []string
	// Report is the projection result; zero-valued when Err is set.
	Report core.Report
	// Err is the run's error, empty on success.
	Err string
	// Run is the run's span in its request's trace tree (nil when
	// tracing was off). Its subtree is the run's simulated-time trace
	// (GET /runs/{id}/trace); the tree's root is the request's
	// wall-clock trace (GET /runs/{id}/walltrace). The tree's spans
	// are pooled: Add takes a hold on the tree and eviction drops it,
	// and export must go through TraceJSON or WallTraceJSON, which
	// serialize under the recorder lock.
	Run *trace.Span
	// TraceID is the run's trace ID, filled in by Add.
	TraceID trace.TraceID
	// Start and Duration are wall-clock service times — operational
	// bookkeeping, not modeled results.
	Start    time.Time
	Duration time.Duration
}

// Recorder is the bounded ring. The zero value is unusable; call New.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	ring    []Entry            // retained runs; oldest at head once full
	head    int                // slot the next eviction takes, once full
	byID    map[string]indexed // newest retained entry per run ID
	evicted int64
}

// indexed is one run ID's index entry: the newest retained entry with
// that ID, and how many ring slots carry the ID.
type indexed struct {
	Entry
	live int
}

// New returns a recorder keeping the last capacity completed runs.
func New(capacity int) (*Recorder, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("flight: capacity %d below 1", capacity)
	}
	return &Recorder{cap: capacity, byID: make(map[string]indexed)}, nil
}

// MustNew is New, panicking on error.
func MustNew(capacity int) *Recorder {
	r, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Add records one completed run, evicting the oldest entry when the
// ring is full, in constant time. An entry with a duplicate ID
// replaces the stored one in the index but still occupies a ring
// slot; the index keeps the ID until its last slot is evicted. The
// daemon's process-unique run IDs never collide, but the recorder
// stays correct for callers whose IDs do.
//
// Each retained slot holds its run's trace tree (trace.Tracer.Hold),
// and eviction drops that hold, so a tree returns to the span pool
// once no retained slot references it and its request has released
// its own hold. The hold is dropped after r.mu is unlocked, so the
// release of a whole tree does not stall readers. That is safe:
// exporters reach a tree only through a retained slot while holding
// r.mu, and a tree is freed only once no retained slot holds it.
func (r *Recorder) Add(e Entry) {
	tr := e.Run.Tracer()
	tr.Hold()
	e.TraceID = tr.TraceID()
	var dropped *trace.Tracer
	r.mu.Lock()
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, e)
	} else {
		old := &r.ring[r.head]
		dropped = old.Run.Tracer()
		if x := r.byID[old.ID]; x.live > 1 {
			x.live--
			r.byID[old.ID] = x
		} else {
			delete(r.byID, old.ID)
		}
		*old = e
		r.head = (r.head + 1) % r.cap
		r.evicted++
	}
	r.byID[e.ID] = indexed{Entry: e, live: r.byID[e.ID].live + 1}
	r.mu.Unlock()
	dropped.Release()
}

// Get returns the entry with the given run ID.
func (r *Recorder) Get(id string) (Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	x, ok := r.byID[id]
	return x.Entry, ok
}

// Errors the trace exporters distinguish for the HTTP layer.
var (
	// ErrNoRun: the ID is unknown (evicted or never recorded).
	ErrNoRun = fmt.Errorf("flight: no such run (evicted or never recorded)")
	// ErrNoTrace: the run exists but was recorded without a trace.
	ErrNoTrace = fmt.Errorf("flight: run recorded without a trace")
)

// TraceJSON serializes the run's simulated-time trace as Chrome
// trace_event JSON. The recorder lock is held across the export so a
// concurrent eviction cannot release the tree's pooled spans out from
// under the serializer — callers must not export a Run pulled from
// Get for exactly that reason.
func (r *Recorder) TraceJSON(id string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.tracedLocked(id)
	if err != nil {
		return nil, err
	}
	return e.Run.ChromeJSON()
}

// WallTraceJSON serializes the run's whole request tree in wall time
// as OTLP/JSON, under the recorder lock like TraceJSON.
func (r *Recorder) WallTraceJSON(id string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, err := r.tracedLocked(id)
	if err != nil {
		return nil, err
	}
	return e.Run.Tracer().OTLP()
}

// tracedLocked returns the entry for id, or the error the exporters
// report. Callers must hold r.mu.
func (r *Recorder) tracedLocked(id string) (Entry, error) {
	x, ok := r.byID[id]
	if !ok {
		return x.Entry, ErrNoRun
	}
	if x.Run == nil {
		return x.Entry, ErrNoTrace
	}
	return x.Entry, nil
}

// Entries returns a copy of the retained runs, oldest first.
func (r *Recorder) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.ring))
	out = append(out, r.ring[r.head:]...)
	return append(out, r.ring[:r.head]...)
}

// Len returns the number of retained runs.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Evicted returns how many runs have been evicted since startup.
func (r *Recorder) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// Capacity returns the ring capacity.
func (r *Recorder) Capacity() int { return r.cap }
