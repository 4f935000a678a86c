package trace

import (
	"context"
	"testing"
	"time"
)

// fakeClock returns a Now func advancing by step per call.
func fakeClock(start time.Time, step time.Duration) func() time.Time {
	t := start
	return func() time.Time {
		now := t
		t = t.Add(step)
		return now
	}
}

// newFakeRequest is NewRequest on a fake wall clock.
func newFakeRequest(service string, parent SpanContext) *Tracer {
	return newTracer(service, kindWall, parent, fakeClock(time.Unix(1700000000, 0), time.Millisecond))
}

// countSpans walks the whole tree.
func countSpans(tr *Tracer) int {
	n := 0
	tr.Walk(func(*Span, int) { n++ })
	return n
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.TraceID() != (TraceID{}) {
		t.Fatalf("nil tracer trace ID = %v", tr.TraceID())
	}
	if tr.Root() != nil {
		t.Fatalf("nil tracer root not zero")
	}
	if sc := tr.ServerContext(); sc.IsValid() {
		t.Fatalf("nil tracer server context valid")
	}
	tr.Close()
	tr.Hold()
	tr.Release()
	tr.Walk(func(*Span, int) { t.Fatalf("nil tracer walked a span") })
	if d := tr.Durations(); d != nil {
		t.Fatalf("nil tracer durations = %v", d)
	}
	if n := tr.Count("x"); n != 0 {
		t.Fatalf("nil tracer count = %d", n)
	}
	var s *Span
	s.End()
	s.SetAttr(String("k", "v"))
	if s.Name() != "" || !s.ID().IsZero() || s.Tracer() != nil {
		t.Fatalf("nil span not inert")
	}

	// Starting with no tracer installed must return (ctx, nil).
	for _, start := range []func(context.Context, string, ...Attr) (context.Context, *Span){Start, StartRun, StartWall} {
		ctx, span := start(context.Background(), "noop")
		if span != nil {
			t.Fatalf("start without tracer returned a span")
		}
		if Current(ctx) != nil || FromContext(ctx) != nil {
			t.Fatalf("untraced context carries state")
		}
	}
}

func TestStartNestingAndDurations(t *testing.T) {
	tr := newFakeRequest("svc", SpanContext{})
	ctx := With(context.Background(), tr)

	ctx1, s1 := StartWall(ctx, "outer", String("k", "v"))
	if s1 == nil || Current(ctx1) != s1 {
		t.Fatalf("outer span not carried by context")
	}
	_, s2 := StartWall(ctx1, "inner")
	s2.End()
	s1.End()
	// A sibling started from the root context parents at the root.
	sctx, s3 := StartWall(ctx, "sibling")
	// A simulated span under it is in the tree but not a service span.
	_, sim := Start(sctx, "sim")
	sim.End()
	s3.End()
	tr.Close()

	var names []string
	var depths []int
	tr.Walk(func(s *Span, d int) { names = append(names, s.Name()); depths = append(depths, d) })
	wantNames := []string{"svc", "outer", "inner", "sibling", "sim"}
	wantDepths := []int{0, 1, 2, 1, 2}
	for i := range wantNames {
		if i >= len(names) || names[i] != wantNames[i] || depths[i] != wantDepths[i] {
			t.Fatalf("walk order = %v %v, want %v %v", names, depths, wantNames, wantDepths)
		}
	}

	d := tr.Durations()
	for _, name := range wantNames[:4] {
		if d[name] <= 0 {
			t.Fatalf("duration of %q = %v, want > 0", name, d[name])
		}
	}
	if _, ok := d["sim"]; ok || len(d) != 4 {
		t.Fatalf("durations = %v, want the four service spans only", d)
	}
	if n := tr.Count("inner", "sibling"); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}

func TestRemoteParentAdoptsTraceID(t *testing.T) {
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	tr := NewRequest("svc", parent)
	if tr.TraceID() != parent.TraceID {
		t.Fatalf("trace ID %v not adopted from parent %v", tr.TraceID(), parent.TraceID)
	}
	if tr.remote != parent.SpanID {
		t.Fatalf("remote = %v, want %v", tr.remote, parent.SpanID)
	}
	sc := tr.ServerContext()
	if sc.TraceID != parent.TraceID || sc.SpanID != tr.Root().ID() || !sc.Sampled {
		t.Fatalf("server context %+v does not advertise the root span", sc)
	}
}

func TestFreshTracerMakesUniqueIDs(t *testing.T) {
	a, b := New("a"), NewRequest("b", SpanContext{})
	if a.TraceID() == b.TraceID() {
		t.Fatalf("two tracers share trace ID %v", a.TraceID())
	}
	if a.TraceID().IsZero() || a.Root().ID().IsZero() {
		t.Fatalf("fresh tracer has zero IDs")
	}
	if !a.remote.IsZero() || !b.remote.IsZero() {
		t.Fatalf("fresh tracer claims a remote parent")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewRequest("svc", SpanContext{})
	ctx := With(context.Background(), tr)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				_, s := StartWall(ctx, "work")
				s.SetAttr(Int("j", int64(j)))
				s.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	tr.Close()
	if n := countSpans(tr); n != 1+8*100 {
		t.Fatalf("span count = %d, want %d", n, 1+8*100)
	}
}

// runPipeline stamps one small simulated pipeline under ctx's current
// span, with service spans wrapped around the simulated ones the way
// the engine stages and the calibration pool wrap them.
func runPipeline(ctx context.Context, advance float64) {
	_, cal := StartWall(ctx, "cal.cache_hit")
	cal.End()
	sctx, stage := StartWall(ctx, "stage.kernels")
	kctx, k := Start(sctx, "kernel k", Float("pred_s", advance))
	_, m := Start(kctx, "measure.kernel")
	m.End()
	k.Advance(advance)
	k.End()
	stage.End()
	sctx, stage = StartWall(ctx, "stage.transfers")
	_, x := Start(sctx, "transfer x")
	x.Advance(advance / 2)
	x.End()
	stage.End()
}

// TestRunsOwnTheirClocks: concurrent runs under one request root each
// start at simulated 0, pass Check, and export the same Chrome bytes
// as the same pipeline traced alone — service spans and sibling runs
// never reach a run's simulated trace.
func TestRunsOwnTheirClocks(t *testing.T) {
	alone := New("run")
	runPipeline(With(context.Background(), alone), 2)
	alone.Close()
	want, err := alone.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}

	tr := NewRequest("svc", SpanContext{})
	ctx := With(context.Background(), tr)
	_, q := StartWall(ctx, "queue.wait")
	q.End()
	runs := make([]*Span, 4)
	done := make(chan struct{})
	for i := range runs {
		rctx, run := StartRun(ctx, "run")
		runs[i] = run
		go func() {
			defer func() { done <- struct{}{} }()
			runPipeline(rctx, 2)
			run.End()
		}()
	}
	for range runs {
		<-done
	}
	tr.Close()
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for i, run := range runs {
		if iv := run.Interval(); iv.Start != 0 || iv.Duration != 3 {
			t.Errorf("run %d interval = %+v, want [0, 3]", i, iv)
		}
		got, err := run.ChromeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("run %d Chrome trace differs from the run traced alone:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if n := tr.Count("cal.cache_hit"); n != len(runs) {
		t.Errorf("cal.cache_hit count = %d, want %d", n, len(runs))
	}
}

// TestCheckSkipsServiceSpans: a service span's simulated children are
// checked against the service span's timeline parent.
func TestCheckSkipsServiceSpans(t *testing.T) {
	tr := New("root")
	ctx := With(context.Background(), tr)
	wctx, w := StartWall(ctx, "stage")
	_, a := Start(wctx, "a")
	a.Advance(1)
	a.End()
	w.End()
	// b starts after a ended: fine. An overlapping sum would fail.
	_, b := Start(ctx, "b")
	b.Advance(1)
	b.End()
	tr.Close()
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := tr.Tree(); got != "root 2s\n  a 1s (50.0%)\n  b 1s (50.0%)\n" {
		t.Fatalf("tree:\n%s", got)
	}

	// An unclosed service span is still an error.
	tr2 := New("root")
	StartWall(With(context.Background(), tr2), "open")
	tr2.Close()
	if err := tr2.Check(); err == nil {
		t.Fatal("Check accepted an unclosed service span")
	}
}

// TestHoldRelease: the tree is recycled when its last holder lets go,
// not before.
func TestHoldRelease(t *testing.T) {
	tr := New("run")
	tr.Close()
	tr.Hold()
	tr.Release()
	if tr.Released() {
		t.Fatal("released while a holder remains")
	}
	tr.Release()
	if !tr.Released() {
		t.Fatal("not released after the last holder let go")
	}
	tr.Release() // extra releases are no-ops
	if err := tr.Check(); err == nil {
		t.Fatal("Check on a released tracer must fail")
	}
}
