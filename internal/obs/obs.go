// Package obs is the live observability layer of the daemon: the
// structured logger grophecyd writes its records with, process-unique
// run IDs, the canonical wide event (event.go) that is a request's one
// log record, and the HTTP surface (server.go) grophecyd mounts —
// Prometheus metrics, pprof, health/readiness, and build provenance.
//
// Library code does not log. A degraded measurement or calibration is
// recorded once, as a note in the report's Degradations (and counted
// on the request's wide event); a failure is a returned error.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// Log field names. Exported so tests and dashboards share one
// spelling.
const (
	FieldRun   = "run"
	FieldPhase = "phase"
)

// runSeq numbers run IDs process-wide. Deterministic for a
// deterministic call order: the first projection of a process is
// always run-1.
var runSeq atomic.Int64

// NewRunID returns the next process-unique run ID ("run-1", "run-2",
// ...). The daemon assigns one per projection.
func NewRunID() string {
	return fmt.Sprintf("run-%d", runSeq.Add(1))
}

// NewLogger builds the daemon's structured logger: format is "text"
// or "json" (the -log-format flag), level the minimum severity
// emitted.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}
