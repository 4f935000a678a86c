package trace

import (
	"context"
	"strings"
	"testing"
)

func TestSpanTreeBasics(t *testing.T) {
	tr := New("root")
	ctx := With(context.Background(), tr)

	kctx, kernel := Start(ctx, "kernel", String("name", "k1"))
	_, explore := Start(kctx, "explore")
	explore.SetAttr(Int("variants", 12))
	explore.End()
	kernel.Advance(2.0)
	kernel.End()

	_, xfer := Start(ctx, "transfer")
	xfer.Advance(1.5)
	xfer.End()
	tr.Close()

	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if got := tr.Root().Interval().Duration; got != 3.5 {
		t.Fatalf("root duration = %g, want 3.5", got)
	}
	if got := kernel.Interval(); got.Start != 0 || got.Duration != 2.0 {
		t.Fatalf("kernel interval = %+v", got)
	}
	if got := xfer.Interval(); got.Start != 2.0 || got.Duration != 1.5 {
		t.Fatalf("transfer interval = %+v", got)
	}
	if got := explore.Interval().Duration; got != 0 {
		t.Fatalf("structural span duration = %g, want 0", got)
	}
}

func TestNilSafety(t *testing.T) {
	// No tracer in the context: everything must be a cheap no-op.
	ctx, sp := Start(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("expected nil span without a tracer")
	}
	sp.SetAttr(String("k", "v"))
	sp.Advance(1)
	sp.End()
	if sp.Name() != "" || sp.Interval() != (Interval{}) || sp.Children() != nil || sp.Attrs() != nil {
		t.Fatal("nil span accessors must return zero values")
	}
	var tr *Tracer
	tr.Close()
	tr.Walk(func(*Span, int) { t.Fatal("nil tracer must not walk") })
	if err := tr.Check(); err != nil {
		t.Fatalf("nil tracer Check: %v", err)
	}
	if tr.Root() != nil || tr.Tree() != "" {
		t.Fatal("nil tracer accessors must return zero values")
	}
	if _, err := tr.ChromeJSON(); err == nil {
		t.Fatal("nil tracer ChromeJSON must error")
	}
	_ = ctx
}

func TestSetAttrReplaces(t *testing.T) {
	tr := New("root")
	ctx := With(context.Background(), tr)
	_, sp := Start(ctx, "s", String("k", "old"))
	sp.SetAttr(String("k", "new"))
	sp.SetAttr(String("b", "1"))
	sp.End()
	attrs := sp.Attrs()
	if len(attrs) != 2 || attrs[0] != (Attr{"b", "1"}) || attrs[1] != (Attr{"k", "new"}) {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestSetAttrReplacesTyped(t *testing.T) {
	tr := New("root")
	ctx := With(context.Background(), tr)
	_, sp := Start(ctx, "s", Int("n", 1))
	sp.SetAttr(Int("n", 7))
	sp.SetAttr(Bool("t", false))
	sp.SetAttr(Bool("t", true))
	sp.End()
	attrs := sp.Attrs()
	if len(attrs) != 2 || attrs[0] != (Attr{"n", "7"}) || attrs[1] != (Attr{"t", "true"}) {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestCheckUnclosedSpan(t *testing.T) {
	tr := New("root")
	ctx := With(context.Background(), tr)
	Start(ctx, "open")
	tr.Close()
	if err := tr.Check(); err == nil || !strings.Contains(err.Error(), "not closed") {
		t.Fatalf("Check = %v, want unclosed error", err)
	}
}

func TestCheckChildEscapesParent(t *testing.T) {
	tr := New("root")
	ctx := With(context.Background(), tr)
	pctx, parent := Start(ctx, "parent")
	_, child := Start(pctx, "child")
	parent.End()
	child.Advance(1)
	child.End()
	tr.Close()
	if err := tr.Check(); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("Check = %v, want escape error", err)
	}
}

func TestCheckSiblingOverCommit(t *testing.T) {
	// Two siblings advancing inside a parent are fine; the sum equals
	// the parent duration exactly.
	tr := New("root")
	ctx := With(context.Background(), tr)
	pctx, parent := Start(ctx, "parent")
	for i := 0; i < 100; i++ {
		_, c := Start(pctx, "c")
		c.Advance(0.01)
		c.End()
	}
	parent.End()
	tr.Close()
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestIntervalContains(t *testing.T) {
	outer := Interval{Start: 1, Duration: 4}
	if !outer.Contains(Interval{Start: 1, Duration: 4}) {
		t.Fatal("interval must contain itself")
	}
	if !outer.Contains(Interval{Start: 2, Duration: 1}) {
		t.Fatal("inner interval must be contained")
	}
	if outer.Contains(Interval{Start: 0.5, Duration: 1}) {
		t.Fatal("interval starting earlier must not be contained")
	}
	if outer.Contains(Interval{Start: 4, Duration: 2}) {
		t.Fatal("interval ending later must not be contained")
	}
	if got := outer.End(); got != 5 {
		t.Fatalf("End = %g, want 5", got)
	}
}

func TestTreeRendering(t *testing.T) {
	tr := New("grophecy")
	ctx := With(context.Background(), tr)
	_, k := Start(ctx, "kernel", String("name", "k1"))
	k.Advance(1)
	k.End()
	tr.Close()
	out := tr.Tree()
	if !strings.Contains(out, "grophecy 1s") {
		t.Fatalf("tree missing root line:\n%s", out)
	}
	if !strings.Contains(out, "  kernel 1s (100.0%) [name=k1]") {
		t.Fatalf("tree missing kernel line:\n%s", out)
	}
}

func TestCurrentAndFromContext(t *testing.T) {
	tr := New("root")
	ctx := With(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext lost the tracer")
	}
	if Current(ctx) != nil {
		t.Fatal("no span started yet")
	}
	sctx, sp := Start(ctx, "s")
	if Current(sctx) != sp {
		t.Fatal("Current must return the innermost span")
	}
	sp.End()
}
