// The canonical wide event: one request-scoped bag of fields that
// handlers annotate as they learn things (run ID, workload, cache
// outcome, queue depth), emitted exactly once per request as a single
// structured log record. One wide record per request beats scattered
// log lines: every field needed to debug a request rides on one
// greppable row keyed by trace ID.
package obs

import (
	"context"
	"log/slog"
	"sync"
)

type ctxKey int

const eventKey ctxKey = 0

// Event accumulates the canonical wide event's fields. The zero
// value is not usable; NewEvent returns a ready one. A nil *Event is
// a valid no-op, so handlers annotate unconditionally.
type Event struct {
	mu   sync.Mutex
	keys []string // insertion order, for a stable record layout
	vals map[string]slog.Value
}

// NewEvent returns an empty event.
func NewEvent() *Event {
	return &Event{vals: make(map[string]slog.Value)}
}

// WithEvent installs the event in the context.
func WithEvent(ctx context.Context, e *Event) context.Context {
	return context.WithValue(ctx, eventKey, e)
}

// EventFrom returns the context's event, or nil.
func EventFrom(ctx context.Context) *Event {
	e, _ := ctx.Value(eventKey).(*Event)
	return e
}

// Set records one field, replacing any earlier value under the same
// key (insertion order is kept from the first Set).
func (e *Event) Set(key string, value any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.vals[key]; !ok {
		e.keys = append(e.keys, key)
	}
	e.vals[key] = slog.AnyValue(value)
}

// Has reports whether the event carries a field under key.
func (e *Event) Has(key string) bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.vals[key]
	return ok
}

// Attrs returns the accumulated fields in first-insertion order,
// ready for slog.LogAttrs.
func (e *Event) Attrs() []slog.Attr {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]slog.Attr, 0, len(e.keys))
	for _, k := range e.keys {
		out = append(out, slog.Attr{Key: k, Value: e.vals[k]})
	}
	return out
}
