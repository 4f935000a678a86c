// HTTP surface of the flight recorder:
//
//	GET /runs                index of retained runs, newest first
//	GET /runs/{id}           the run's report JSON (same shape as the CLI)
//	GET /runs/{id}/trace     the run's simulated-time Chrome trace_event JSON
//	GET /runs/{id}/walltrace the run's wall-clock OTLP/JSON trace
package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"grophecy/internal/report"
)

// Summary is one row of the GET /runs index.
type Summary struct {
	ID         string `json:"id"`
	Workload   string `json:"workload"`
	DataSize   string `json:"dataSize"`
	Iterations int    `json:"iterations"`
	Seed       uint64 `json:"seed"`
	// JobID and DependsOn surface the run's batch-DAG edges (absent
	// for single runs and edge-free batches).
	JobID      string   `json:"jobId,omitempty"`
	DependsOn  []string `json:"dependsOn,omitempty"`
	Speedup    float64  `json:"speedupFull,omitempty"`
	Err        string   `json:"error,omitempty"`
	Start      string   `json:"start"`
	DurationMS float64  `json:"durationMs"`
	HasTrace   bool     `json:"hasTrace"`
	// HasWallTrace reports whether the run's request tree is retained
	// for the wall-clock export; it always equals HasTrace, since both
	// exports render the same tree. TraceID keys the run into the OTLP
	// export.
	HasWallTrace bool   `json:"hasWallTrace"`
	TraceID      string `json:"traceId,omitempty"`
}

// summarize builds the index row for one entry.
func summarize(e Entry) Summary {
	s := Summary{
		ID:         e.ID,
		Workload:   e.Workload,
		DataSize:   e.DataSize,
		Seed:       e.Seed,
		JobID:      e.JobID,
		DependsOn:  e.DependsOn,
		Err:        e.Err,
		Start:      e.Start.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
		DurationMS: float64(e.Duration.Microseconds()) / 1e3,
		HasTrace:   e.Run != nil,
	}
	if e.Run != nil {
		s.HasWallTrace = true
		s.TraceID = e.TraceID.String()
	}
	if e.Err == "" {
		s.Iterations = e.Report.Iterations
		// Guard: a pathological report can make the ratio NaN/Inf,
		// which JSON cannot encode; the index omits it instead.
		if v := e.Report.SpeedupFull(); !math.IsNaN(v) && !math.IsInf(v, 0) {
			s.Speedup = v
		}
	}
	return s
}

// index is the GET /runs document.
type index struct {
	Capacity int       `json:"capacity"`
	Retained int       `json:"retained"`
	Evicted  int64     `json:"evicted"`
	Runs     []Summary `json:"runs"`
}

// Mount attaches the recorder's endpoints to mux.
func (r *Recorder) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /runs", r.handleIndex)
	mux.HandleFunc("GET /runs/{id}", r.handleRun)
	mux.HandleFunc("GET /runs/{id}/trace", r.handleTrace)
	mux.HandleFunc("GET /runs/{id}/walltrace", r.handleWallTrace)
}

func (r *Recorder) handleIndex(w http.ResponseWriter, _ *http.Request) {
	entries := r.Entries()
	doc := index{
		Capacity: r.Capacity(),
		Retained: len(entries),
		Evicted:  r.Evicted(),
		Runs:     make([]Summary, 0, len(entries)),
	}
	for i := len(entries) - 1; i >= 0; i-- { // newest first
		doc.Runs = append(doc.Runs, summarize(entries[i]))
	}
	writeJSON(w, doc)
}

func (r *Recorder) handleRun(w http.ResponseWriter, req *http.Request) {
	e, ok := r.Get(req.PathValue("id"))
	if !ok {
		http.Error(w, "no such run (evicted or never recorded)", http.StatusNotFound)
		return
	}
	if e.Err != "" {
		writeJSON(w, map[string]any{"id": e.ID, "error": e.Err, "workload": e.Workload})
		return
	}
	data, err := report.JSON(e.Report)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (r *Recorder) handleTrace(w http.ResponseWriter, req *http.Request) {
	data, err := r.TraceJSON(req.PathValue("id"))
	writeTrace(w, data, err)
}

func (r *Recorder) handleWallTrace(w http.ResponseWriter, req *http.Request) {
	data, err := r.WallTraceJSON(req.PathValue("id"))
	writeTrace(w, data, err)
}

// writeTrace maps a trace exporter's result onto the response.
func writeTrace(w http.ResponseWriter, data []byte, err error) {
	switch {
	case errors.Is(err, ErrNoRun), errors.Is(err, ErrNoTrace):
		http.Error(w, err.Error(), http.StatusNotFound)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}
}

func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(w, "{}")
	}
}
