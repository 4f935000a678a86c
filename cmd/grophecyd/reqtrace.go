// Request tracing for the projection endpoints: W3C trace-context
// propagation, per-stage latency attribution, the canonical wide
// event, histogram exemplars, and SLO accounting.
//
// Every admitted request runs under one internal/trace request tracer:
// its root is the daemon's server span, the admission wait is a
// queue.wait service span under it, and each run — the /project
// projection, or one /batch job — is a run span under the root with
// its own simulated clock. An inbound `traceparent` header is adopted
// (the daemon's trace joins the caller's), a fresh trace is minted
// otherwise, and the root span is echoed back in the response
// `traceparent` header so callers can stitch either way. The finished
// tree is exported to the configured OTLP sinks and retained on the
// flight ring, which serves a run's subtree as GET /runs/{id}/trace
// and the whole tree as GET /runs/{id}/walltrace.
//
// The wide event is the one Info record per request: a single slog
// record carrying the trace ID, tenant, outcome, queue depth at
// admission, the request's own calibration-cache hits and misses, and
// per-span-name wall milliseconds of the service spans (queue.wait,
// cal.*, snap.*, stage.*) — everything the per-request dashboards
// need without joining log streams.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/trace"
)

// statusWriter captures the response status for the wide event and
// the SLO tracker. WriteHeader-less handlers imply 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streamed responses (NDJSON
// batch rows) reach the client per-row instead of buffering until the
// handler returns.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tenantKey derives the wide event's tenant label. Raw API keys must
// never reach logs, so the key is fingerprinted; unauthenticated
// requests are pooled under "anon".
func tenantKey(req *http.Request) string {
	k := req.Header.Get("X-API-Key")
	if k == "" {
		return "anon"
	}
	sum := sha256.Sum256([]byte(k))
	return hex.EncodeToString(sum[:4])
}

// admitted wraps a projection-shaped handler in the admission gate
// and the request-tracing envelope. The request either owns a
// worker slot for its whole lifetime, waits its turn in FIFO order
// (as a queue.wait span), or is shed with 429 + Retry-After — and
// every outcome, shed included, produces a wide event, an exemplared
// latency observation, and an SLO sample.
func (s *server) admitted(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		mRequests.Inc()

		parent, _ := trace.Extract(req.Header)
		tracer := trace.NewRequest("grophecyd", parent)
		trace.Inject(w.Header(), tracer.ServerContext())

		event := obs.NewEvent()
		event.Set(obs.FieldPhase, "request")
		event.Set("trace_id", tracer.TraceID().String())
		event.Set("tenant", tenantKey(req))
		event.Set("method", req.Method)
		event.Set("path", req.URL.Path)

		ctx := trace.With(req.Context(), tracer)
		ctx = obs.WithEvent(ctx, event)
		req = req.WithContext(ctx)

		depth := s.admit.queueDepth()
		event.Set("queue_depth", depth)
		_, qspan := trace.StartWall(ctx, "queue.wait")
		qspan.SetAttr(trace.Int("queue_depth", int64(depth)))
		release, err := s.admit.acquire(ctx)
		qspan.End()
		mQueueWait.Observe(time.Since(start).Seconds())

		if err != nil {
			mRequestErrors.Inc()
			status := http.StatusServiceUnavailable // client went away while queued
			if isShed(err) {
				mShed.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(s.admit.retryAfterSeconds()))
				status = http.StatusTooManyRequests
			}
			event.Set("shed", isShed(err))
			writeError(w, status, err)
			s.finishRequest(tracer, event, status, start)
			return
		}
		defer release()
		mInflight.Add(1)
		defer mInflight.Add(-1)

		if s.testBlock != nil {
			<-s.testBlock
		}
		hctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next(sw, req.WithContext(hctx))
		s.finishRequest(tracer, event, sw.status, start)
	}
}

// finishRequest closes the request's trace and fans the outcome out
// to every per-request surface: the latency histogram (with the trace
// ID as an exemplar, linking the bucket back to the trace), the SLO
// tracker (5xx counts against availability; the latency objective
// applies its own threshold), the canonical wide event, and the OTLP
// sinks. Then it drops the request's hold on the tree; flight entries
// that retain a run keep their own holds.
func (s *server) finishRequest(tracer *trace.Tracer, event *obs.Event, status int, start time.Time) {
	defer tracer.Release()
	tracer.Close()
	elapsed := time.Since(start)
	mRequestSeconds.ObserveExemplar(elapsed.Seconds(),
		metrics.Label{Name: "trace_id", Value: tracer.TraceID().String()})
	s.slo.Record(elapsed, status < 500)

	event.Set("status", status)
	event.Set("duration_ms", roundMS(elapsed))
	// Cache outcomes come from this request's own calibration spans,
	// never from the pool's daemon-global counters.
	event.Set("cache_hits", tracer.Count("cal.cache_hit", "cal.wait"))
	event.Set("cache_misses", tracer.Count("cal.compute"))
	names := make([]string, 0, 8)
	durs := tracer.Durations()
	for name := range durs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		event.Set("ms."+name, roundMS(durs[name]))
	}
	s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "request", event.Attrs()...)

	for _, sink := range s.sinks {
		sink.Export(tracer)
	}
}

// roundMS renders a duration as milliseconds with microsecond
// resolution — wide-event fields are read by humans and dashboards,
// not parsed back into nanoseconds.
func roundMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1e3
}
