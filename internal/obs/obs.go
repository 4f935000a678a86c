// Package obs is the live observability layer of the pipeline: the
// structured logger every binary shares, the context threading that
// stamps each log line with a run ID, workload, and phase, and the
// HTTP surface (server.go) that grophecyd mounts — Prometheus metrics,
// pprof, health/readiness, and build provenance.
//
// Logging follows three conventions (docs/OBSERVABILITY.md):
//
//   - run:      the projection's run ID ("run-7"), unique per process;
//   - workload: the skeleton/workload name being projected;
//   - phase:    the pipeline stage emitting the line ("evaluate",
//     "calibrate", "kernel", "transfer", "cpu", "sweep", "serve").
//
// All three travel by context.Context. Log(ctx) returns the
// context's logger with whatever subset is set already bound, and the
// stamp handler additionally injects them for *Context log calls, so
// a line cannot lose its stamps whichever slog method emitted it.
//
// A context with no logger yields a silent logger, so library code
// logs unconditionally and pays nothing when no binary asked for
// output — the same nil-safety discipline as internal/trace.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// Log field names. Exported so tests and dashboards share one
// spelling.
const (
	FieldRun      = "run"
	FieldWorkload = "workload"
	FieldPhase    = "phase"
)

type ctxKey int

const (
	loggerKey ctxKey = iota
	runKey
	workloadKey
	phaseKey
	eventKey
)

// runSeq numbers run IDs process-wide. Deterministic for a
// deterministic call order: the first projection of a process is
// always run-1.
var runSeq atomic.Int64

// NewRunID returns the next process-unique run ID ("run-1", "run-2",
// ...). The daemon assigns one per request; CLIs assign one per
// invocation.
func NewRunID() string {
	return fmt.Sprintf("run-%d", runSeq.Add(1))
}

// NewLogger builds the shared structured logger: format is "text" or
// "json" (the -log-format flag of every binary), level the minimum
// severity emitted. The returned logger stamps run/workload/phase
// from the context on every *Context call via the stamp handler.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var inner slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		inner = slog.NewTextHandler(w, opts)
	case "json":
		inner = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	return slog.New(stampHandler{inner}), nil
}

// LogFormatUsage and LogLevelUsage are the shared help strings of the
// -log-format and -log-level flags every binary exposes.
const (
	LogFormatUsage = "log line format: text or json"
	LogLevelUsage  = "minimum log severity: debug, info, warn, error"
)

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

// Setup is the one-call logging bootstrap every binary shares: it
// builds a logger on w from the -log-format/-log-level flag values
// and returns ctx carrying the logger plus a fresh run ID.
func Setup(ctx context.Context, w io.Writer, format, level string) (context.Context, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return ctx, err
	}
	lg, err := NewLogger(w, format, lv)
	if err != nil {
		return ctx, err
	}
	return WithRun(WithLogger(ctx, lg), NewRunID()), nil
}

// stampHandler injects the context's run ID, workload, and phase into
// every record that does not already carry them, so *Context calls
// are stamped even without going through Log().
type stampHandler struct{ inner slog.Handler }

func (h stampHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h stampHandler) Handle(ctx context.Context, rec slog.Record) error {
	stamp(ctx, &rec)
	return h.inner.Handle(ctx, rec)
}

// stamp adds the context's run/workload/phase to the record unless
// the record already carries that key, so stacking stamping handlers
// never duplicates a field.
func stamp(ctx context.Context, rec *slog.Record) {
	have := map[string]bool{}
	rec.Attrs(func(a slog.Attr) bool {
		have[a.Key] = true
		return true
	})
	add := func(key, val string) {
		if val != "" && !have[key] {
			rec.AddAttrs(slog.String(key, val))
		}
	}
	add(FieldRun, RunID(ctx))
	add(FieldWorkload, Workload(ctx))
	add(FieldPhase, Phase(ctx))
}

func (h stampHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return stampHandler{h.inner.WithAttrs(attrs)}
}

func (h stampHandler) WithGroup(name string) slog.Handler {
	return stampHandler{h.inner.WithGroup(name)}
}

// discardHandler drops everything; it backs the silent logger
// returned when a context carries none.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// silent is the shared no-op logger.
var silent = slog.New(discardHandler{})

// WithLogger installs lg as the context's logger.
func WithLogger(ctx context.Context, lg *slog.Logger) context.Context {
	if lg == nil {
		return ctx
	}
	return context.WithValue(ctx, loggerKey, lg)
}

// WithRun stamps the context with a run ID.
func WithRun(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, runKey, id)
}

// WithWorkload stamps the context with the workload name.
func WithWorkload(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, workloadKey, name)
}

// WithPhase stamps the context with the current pipeline phase.
func WithPhase(ctx context.Context, phase string) context.Context {
	return context.WithValue(ctx, phaseKey, phase)
}

// RunID returns the context's run ID, or "".
func RunID(ctx context.Context) string {
	s, _ := ctx.Value(runKey).(string)
	return s
}

// Workload returns the context's workload name, or "".
func Workload(ctx context.Context) string {
	s, _ := ctx.Value(workloadKey).(string)
	return s
}

// Phase returns the context's phase, or "".
func Phase(ctx context.Context) string {
	s, _ := ctx.Value(phaseKey).(string)
	return s
}

// Log returns a logger bound to the context: lines it emits carry the
// context's run ID, workload, and phase whether or not the call site
// uses a *Context method. With no logger installed it returns the
// silent logger, so call sites never check.
func Log(ctx context.Context) *slog.Logger {
	lg, _ := ctx.Value(loggerKey).(*slog.Logger)
	if lg == nil {
		return silent
	}
	return slog.New(bindHandler{inner: lg.Handler(), ctx: ctx})
}

// bindHandler carries the context captured by Log so that plain
// (non-Context) log calls are still stamped. The stamp call here and
// the one in stampHandler are both missing-only, so stacking them is
// harmless.
type bindHandler struct {
	inner slog.Handler
	ctx   context.Context
}

func (h bindHandler) Enabled(_ context.Context, level slog.Level) bool {
	return h.inner.Enabled(h.ctx, level)
}

func (h bindHandler) Handle(_ context.Context, rec slog.Record) error {
	stamp(h.ctx, &rec)
	return h.inner.Handle(h.ctx, rec)
}

func (h bindHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return bindHandler{inner: h.inner.WithAttrs(attrs), ctx: h.ctx}
}

func (h bindHandler) WithGroup(name string) slog.Handler {
	return bindHandler{inner: h.inner.WithGroup(name), ctx: h.ctx}
}
