// GET /statusz: the daemon's human-readable live status page — one
// plain-text screen an operator can curl (or open in a browser)
// during an incident instead of mentally joining /metrics, /readyz,
// /buildinfo, and /runs. Everything on it is served from in-process
// state; rendering it never takes the admission gate, so it stays
// responsive exactly when the daemon is saturated.
package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"grophecy/internal/slo"
)

func (s *server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	now := time.Now()

	fmt.Fprintf(&b, "grophecyd status  (uptime %s)\n", now.Sub(s.started).Round(time.Second))
	fmt.Fprintf(&b, "target: %s  seed: %d\n", s.tgt.Name, s.cfg.Seed)

	ready, degraded, detail := s.ready.State()
	state := "NOT READY"
	switch {
	case ready && degraded:
		state = "READY (degraded: " + detail + ")"
	case ready:
		state = "READY"
	}
	if s.ready.Saturated() {
		state += "  SATURATED"
	}
	fmt.Fprintf(&b, "state:  %s\n", state)

	fmt.Fprintf(&b, "\nadmission  %s\n", s.admit.String())
	fmt.Fprintf(&b, "  inflight: %d  queued: %d\n", s.admit.inflightCount(), s.admit.queueDepth())

	fmt.Fprintf(&b, "\ncalibration cache  entries: %d  hits: %d  misses: %d  evictions: %d\n",
		s.pool.Len(), s.pool.Hits(), s.pool.Misses(), s.pool.Evictions())
	if open := s.pool.OpenBreakers(); len(open) > 0 {
		fmt.Fprintf(&b, "  OPEN BREAKERS:")
		for _, k := range open {
			fmt.Fprintf(&b, " %s/%v/seed=%d", k.Target, k.Kind, k.Seed)
		}
		b.WriteByte('\n')
	}

	fmt.Fprintf(&b, "\nsnapshots  %s\n", s.snap.Summary())

	b.WriteString("\nSLO burn rates  (>1.0 burns the error budget too fast)\n")
	for _, st := range s.slo.Snapshot() {
		obj := st.Objective.Name
		if st.Objective.Latency > 0 {
			obj += fmt.Sprintf(" (<=%s)", st.Objective.Latency)
		}
		fmt.Fprintf(&b, "  %-22s target %.4g", obj, st.Objective.Target)
		for _, ws := range st.Windows {
			fmt.Fprintf(&b, "  %s: %.3g (%d/%d bad)",
				slo.WindowLabel(ws.Window), ws.BurnRate, ws.Total-ws.Good, ws.Total)
		}
		b.WriteByte('\n')
	}

	entries := s.recorder.Entries()
	fmt.Fprintf(&b, "\nrecent runs  (%d retained, %d evicted)\n", len(entries), s.recorder.Evicted())
	shown := 0
	for i := len(entries) - 1; i >= 0 && shown < 10; i-- { // newest first
		e := entries[i]
		outcome := "ok"
		if e.Err != "" {
			outcome = "ERR " + e.Err
		}
		trace := ""
		if e.Run != nil {
			trace = "  trace " + e.TraceID.String()
		}
		fmt.Fprintf(&b, "  %-10s %-12s %7.1fms  %s%s\n",
			e.ID, e.Workload, float64(e.Duration.Microseconds())/1e3, outcome, trace)
		shown++
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, b.String())
}
