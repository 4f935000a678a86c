// Package trace is the observability substrate of GROPHECY++: one
// tree of hierarchical spans per traced operation, in which every span
// carries two clocks — a deterministic *simulated* interval and a
// wall-clock start and end — plus a W3C span ID. The same tree renders
// as a Chrome trace_event document (chrome.go) or a human-readable
// tree (tree.go), both in simulated time, and as an OTLP/JSON document
// (otlp.go) in wall time.
//
// The repository has no wall clock anywhere in its modeled results,
// and the simulated side of a trace follows the same rule: a given
// seed and fault plan reproduce the same Chrome trace byte for byte.
// Each *run* — the CLI's root, one /project request, one /batch job —
// is a span that owns its own simulated clock, starting at zero, so
// concurrent runs under one request tree never share a clock. Spans
// that represent projected GPU time advance their run's clock by
// their modeled duration (Span.Advance); structural spans (parsing,
// analysis, enumeration, measurement bookkeeping) consume no simulated
// time and show up as zero-duration spans whose attributes carry the
// interesting quantities.
//
// Service spans (StartWall: admission, calibration cache, snapshot
// I/O, engine-stage attribution) measure wall time only. They sit off
// the simulated timeline: the simulated renderers skip them and emit
// their children in their place, so instrumenting the service path
// never changes a Chrome trace. Wall values are for operators and
// must never feed a modeled result.
//
// The zero value of *Tracer and *Span is safe: every method is a
// no-op on a nil receiver, so instrumented code never checks whether
// tracing is enabled. Propagation is through context.Context — With
// installs a tracer, Start opens a child of the current span.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Interval is one simulated-time interval in seconds. It is the
// single home of interval arithmetic shared by this package and
// internal/timeline (which embeds it in its events).
type Interval struct {
	// Start is seconds from the beginning of the run.
	Start float64
	// Duration is the interval length in seconds.
	Duration float64
}

// End returns the interval's finish time.
func (iv Interval) End() float64 { return iv.Start + iv.Duration }

// Contains reports whether o lies entirely within iv, with a small
// relative tolerance for float accumulation.
func (iv Interval) Contains(o Interval) bool {
	eps := 1e-9 * (1 + iv.Duration)
	return o.Start >= iv.Start-eps && o.End() <= iv.End()+eps
}

// Attr is one span attribute. Values are pre-formatted strings so the
// export is deterministic regardless of type.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Float builds a float attribute with deterministic shortest
// round-trip formatting.
func Float(key string, value float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(value, 'g', -1, 64)}
}

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// spanKind places a span relative to the simulated timeline.
type spanKind uint8

const (
	// kindSim spans lie on their run's simulated timeline.
	kindSim spanKind = iota
	// kindRun spans own a simulated clock that starts at zero.
	kindRun
	// kindWall spans measure wall time only, off the timeline.
	kindWall
)

// Span is one node of the trace tree. All methods are safe on a nil
// receiver and safe for concurrent use (the owning tracer serializes
// mutation).
type Span struct {
	tr       *Tracer
	name     string
	id       SpanID
	parent   *Span
	run      *Span // the run whose clock this span reads; nil outside any run
	children []*Span
	attrs    []Attr

	clock      float64 // a run's simulated clock; unused on other spans
	start, end float64 // simulated, on run's clock

	wallStart, wallEnd time.Duration // wall clock, as offsets from the tracer's epoch
	kind               spanKind
	closed             bool
}

// Tracer owns one trace tree. A nil *Tracer is a valid disabled
// tracer.
type Tracer struct {
	mu      sync.Mutex
	traceID TraceID
	remote  SpanID // inbound parent span, zero when the trace starts here
	root    *Span
	epoch   time.Time        // wall time the tree's offsets count from
	now     func() time.Time // wall clock override (tests); nil reads the monotonic clock
	holds   int
}

// spanPool recycles span nodes across trace trees. Spans return to
// the pool only when the last holder of their tree calls Release; a
// tree that is never released costs one allocation per span.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// New returns a tracer whose root is a run named rootName, its
// simulated clock at 0 — the shape of a CLI invocation's trace.
func New(rootName string) *Tracer {
	return newTracer(rootName, kindRun, SpanContext{}, nil)
}

// NewRequest returns a request tracer: its root is a wall-clock server
// span named after the service, and the request's runs open under it
// with StartRun. A valid parent continues an inbound trace — the
// tracer adopts its trace ID and parents the root under its span ID.
func NewRequest(service string, parent SpanContext) *Tracer {
	return newTracer(service, kindWall, parent, nil)
}

func newTracer(rootName string, kind spanKind, parent SpanContext, now func() time.Time) *Tracer {
	t := &Tracer{now: now, holds: 1}
	if now != nil {
		t.epoch = now()
	} else {
		t.epoch = time.Now()
	}
	if parent.IsValid() {
		t.traceID, t.remote = parent.TraceID, parent.SpanID
	} else {
		t.traceID = NewTraceID()
	}
	t.root = t.newSpan(rootName, kind, nil, nil)
	return t
}

// newSpan takes a span from the pool and opens it under parent.
// Callers other than newTracer must hold t.mu.
func (t *Tracer) newSpan(name string, kind spanKind, parent *Span, attrs []Attr) *Span {
	s := spanPool.Get().(*Span)
	s.tr, s.name, s.id, s.kind = t, name, NewSpanID(), kind
	s.parent = parent
	s.attrs = append(s.attrs[:0], attrs...) // reuses a pooled span's capacity
	s.children = s.children[:0]
	s.run = nil
	switch {
	case kind == kindRun:
		s.run = s
	case parent != nil:
		s.run = parent.run
	}
	s.clock, s.start, s.end = 0, 0, 0
	if s.run != nil {
		s.start = s.run.clock
	}
	s.wallStart, s.wallEnd = t.elapsed(), 0
	s.closed = false
	if parent != nil {
		parent.children = append(parent.children, s)
	}
	return s
}

// Root returns the root span (nil on a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// TraceID returns the trace identifier (zero on a nil tracer).
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}

// ServerContext returns the span context a response should advertise:
// this trace, parented at the root (server) span. The sampled bit is
// always set — the daemon records every request it serves.
func (t *Tracer) ServerContext() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: t.traceID, SpanID: t.root.id, Sampled: true}
}

// Close ends the root span. Call it once, after the traced work.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	t.root.End()
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// With installs the tracer in the context.
func With(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the installed tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Current returns the innermost open span carried by the context, or
// nil.
func Current(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start opens a child span of the context's current span (or of the
// root when none is set) on the current run's simulated timeline, and
// returns a derived context carrying it. With no tracer installed it
// returns (ctx, nil) and costs nothing.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return start(ctx, name, kindSim, attrs)
}

// StartRun opens a run: a child span that owns its own simulated
// clock, starting at 0. Spans started under it measure simulated time
// from the run's beginning, independent of any sibling run.
func StartRun(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return start(ctx, name, kindRun, attrs)
}

// StartWall opens a service span that measures wall time only. It is
// off the simulated timeline: the simulated renderers and Check skip
// it and treat its children as its parent's.
func StartWall(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return start(ctx, name, kindWall, attrs)
}

func start(ctx context.Context, name string, kind spanKind, attrs []Attr) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	s := t.startChild(Current(ctx), name, kind, attrs)
	return context.WithValue(ctx, spanKey, s), s
}

// startChild opens a span under parent (the root when nil) under the
// tracer lock.
func (t *Tracer) startChild(parent *Span, name string, kind spanKind, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == nil {
		parent = t.root
	}
	return t.newSpan(name, kind, parent, attrs)
}

// Hold adds one holder to the tree. Every Hold must be matched by one
// Release.
func (t *Tracer) Hold() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.holds++
	t.mu.Unlock()
}

// Release drops one holder. A tracer starts with one, its creator's;
// when the last holder lets go, every span of the tree returns to the
// shared pool and the tracer is left empty. Using any previously
// obtained *Span after that is a logic error (the span may already
// serve another tree). Extra releases and a nil tracer are no-ops.
func (t *Tracer) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	var root *Span
	if t.holds > 0 {
		t.holds--
		if t.holds == 0 {
			root, t.root = t.root, nil
		}
	}
	t.mu.Unlock()
	if root != nil {
		releaseSpan(root)
	}
}

// Released reports whether the tree's spans have been recycled. A nil
// tracer is never released (it never held any).
func (t *Tracer) Released() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root == nil
}

// releaseSpan returns a span subtree to the pool.
func releaseSpan(s *Span) {
	for i, c := range s.children {
		releaseSpan(c)
		s.children[i] = nil
	}
	s.children = s.children[:0]
	clear(s.attrs)
	s.attrs = s.attrs[:0]
	s.tr, s.parent, s.run = nil, nil, nil
	s.name = ""
	spanPool.Put(s)
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span identifier (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Tracer returns the tracer that owns the span (nil on nil).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Interval returns the span's simulated-time interval on its run's
// clock. An open span extends to the current clock; a span outside
// any run has an empty interval.
func (s *Span) Interval() Interval {
	if s == nil {
		return Interval{}
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.intervalLocked()
}

func (s *Span) intervalLocked() Interval {
	end := s.end
	if !s.closed && s.run != nil {
		end = s.run.clock
	}
	return Interval{Start: s.start, Duration: end - s.start}
}

// durationLocked returns the span's wall duration; an open span
// extends to the current wall clock.
func (s *Span) durationLocked() time.Duration {
	end := s.wallEnd
	if !s.closed {
		end = s.tr.elapsed()
	}
	return end - s.wallStart
}

// elapsed reads the wall clock as an offset from the tracer's epoch:
// a monotonic read, about half the cost of time.Now, paid twice per
// span.
func (t *Tracer) elapsed() time.Duration {
	if t.now != nil {
		return t.now().Sub(t.epoch)
	}
	return time.Since(t.epoch)
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns the span attributes sorted by key.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.sortedAttrsLocked()
}

func (s *Span) sortedAttrsLocked() []Attr {
	if len(s.attrs) == 0 {
		return nil
	}
	out := append([]Attr(nil), s.attrs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// SetAttr adds or replaces one attribute.
func (s *Span) SetAttr(a Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}

// Advance moves the run's simulated clock forward by d seconds — the
// span is *spending* modeled time. Negative or NaN advances are
// ignored; advancing a closed span, or one outside any run, is a
// no-op.
func (s *Span) Advance(d float64) {
	if s == nil || !(d > 0) {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.closed || s.run == nil {
		return
	}
	s.run.clock += d
}

// End closes the span at the run's current simulated time and the
// current wall time. Ending twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.run != nil {
		s.end = s.run.clock
	}
	s.wallEnd = s.tr.elapsed()
}

// Check verifies the whole tree is well-formed: every span is closed,
// and on every run's simulated timeline intervals have non-negative
// duration, children nest inside their parent, sibling start times are
// monotone non-decreasing, and child durations sum to no more than the
// parent duration. Service spans are transparent — their children are
// checked as their parent's — and a nested run is checked as a
// timeline of its own. It is the invariant the property tests assert
// for every example skeleton.
func (t *Tracer) Check() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return fmt.Errorf("trace: tracer already released")
	}
	return checkSpan(t.root)
}

func checkSpan(s *Span) error {
	if !s.closed {
		return fmt.Errorf("trace: span %q not closed", s.name)
	}
	if s.kind != kindWall {
		if err := checkTimeline(s); err != nil {
			return err
		}
	}
	for _, c := range s.children {
		if err := checkSpan(c); err != nil {
			return err
		}
	}
	return nil
}

// checkTimeline checks s against its simulated children.
func checkTimeline(s *Span) error {
	if s.end < s.start {
		return fmt.Errorf("trace: span %q ends (%g) before it starts (%g)", s.name, s.end, s.start)
	}
	parent := Interval{Start: s.start, Duration: s.end - s.start}
	prevStart := s.start
	var childSum float64
	var err error
	eachTimelineChild(s, func(c *Span) {
		switch {
		case err != nil:
		case c.start < prevStart:
			err = fmt.Errorf("trace: span %q starts at %g before its elder sibling (%g)",
				c.name, c.start, prevStart)
		case c.closed && !parent.Contains(Interval{Start: c.start, Duration: c.end - c.start}):
			err = fmt.Errorf("trace: span %q [%g, %g] escapes parent %q [%g, %g]",
				c.name, c.start, c.end, s.name, s.start, s.end)
		default:
			prevStart = c.start
			if c.closed {
				childSum += c.end - c.start
			}
		}
	})
	if err != nil {
		return err
	}
	if eps := 1e-9 * (1 + parent.Duration); childSum > parent.Duration+eps {
		return fmt.Errorf("trace: children of %q sum to %g, more than the span's %g",
			s.name, childSum, parent.Duration)
	}
	return nil
}

// eachTimelineChild visits s's children on its simulated timeline in
// creation order: service spans are replaced by their own timeline
// children, and nested runs (separate timelines) are skipped. Callers
// must hold the tracer lock.
func eachTimelineChild(s *Span, fn func(*Span)) {
	for _, c := range s.children {
		switch c.kind {
		case kindWall:
			eachTimelineChild(c, fn)
		case kindSim:
			fn(c)
		}
	}
}

// walkTimeline visits s and its simulated descendants depth-first in
// creation order — the view the simulated renderers draw. Callers must
// hold the tracer lock.
func walkTimeline(s *Span, depth int, fn func(*Span, int)) {
	fn(s, depth)
	eachTimelineChild(s, func(c *Span) { walkTimeline(c, depth+1, fn) })
}

// Walk visits every span of the tree — simulated, run and service
// spans alike — depth-first in creation order, with its depth. The
// callback must not start or end spans on this tracer.
func (t *Tracer) Walk(fn func(s *Span, depth int)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	root := t.root
	t.mu.Unlock()
	if root != nil {
		walkSpan(root, 0, fn)
	}
}

func walkSpan(s *Span, depth int, fn func(*Span, int)) {
	fn(s, depth)
	for _, c := range s.Children() {
		walkSpan(c, depth+1, fn)
	}
}

// Durations sums the wall time of the tree's service spans by name —
// the root of a request tracer and every StartWall span. This is the
// per-stage attribution the canonical wide event reports; simulated
// spans are left out because their wall time is already inside the
// service span that ran them. Open spans extend to the current clock.
func (t *Tracer) Durations() map[string]time.Duration {
	if t == nil {
		return nil
	}
	out := make(map[string]time.Duration)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eachLocked(func(s *Span) {
		if s.kind == kindWall {
			out[s.name] += s.durationLocked()
		}
	})
	return out
}

// Count returns how many spans of the tree carry any of the names.
func (t *Tracer) Count(names ...string) int {
	if t == nil {
		return 0
	}
	n := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eachLocked(func(s *Span) {
		for _, name := range names {
			if s.name == name {
				n++
				return
			}
		}
	})
	return n
}

// eachLocked visits every span depth-first in creation order. Callers
// must hold t.mu.
func (t *Tracer) eachLocked(fn func(*Span)) {
	var visit func(*Span)
	visit = func(s *Span) {
		fn(s)
		for _, c := range s.children {
			visit(c)
		}
	}
	if t.root != nil {
		visit(t.root)
	}
}
