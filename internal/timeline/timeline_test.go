package timeline

import (
	"context"
	"math"
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/trace"
)

func hotspotReport(t *testing.T, iters int) core.Report {
	t.Helper()
	w, err := bench.HotSpot("512 x 512")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), core.NewMachine(21), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(w.WithIterations(iters))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFromReportStructure(t *testing.T) {
	rep := hotspotReport(t, 1)
	events := FromReport(rep)
	// 2 uploads + 1 kernel + 1 download.
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	wantKinds := []EventKind{Upload, Upload, Kernel, Download}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if e.Duration <= 0 {
			t.Errorf("event %d duration %v", i, e.Duration)
		}
	}
	// Strictly sequential, gap-free.
	for i := 1; i < len(events); i++ {
		if math.Abs(events[i].Start-events[i-1].End()) > 1e-12 {
			t.Errorf("gap between events %d and %d", i-1, i)
		}
	}
	// The timeline's total equals the report's measured GPU time.
	total := events[len(events)-1].End()
	if math.Abs(total-rep.MeasTotalGPU())/rep.MeasTotalGPU() > 1e-9 {
		t.Errorf("timeline total %v != report total %v", total, rep.MeasTotalGPU())
	}
}

func TestFromReportIterations(t *testing.T) {
	rep := hotspotReport(t, 5)
	events := FromReport(rep)
	kernels := 0
	for _, e := range events {
		if e.Kind == Kernel {
			kernels++
		}
	}
	if kernels != 5 {
		t.Errorf("kernel events = %d, want 5", kernels)
	}
	s := Summarize(events)
	if math.Abs(s.KernelTime-rep.MeasKernelTime)/rep.MeasKernelTime > 1e-9 {
		t.Errorf("kernel summary %v != report %v", s.KernelTime, rep.MeasKernelTime)
	}
	if math.Abs(s.Total()-rep.MeasTotalGPU())/rep.MeasTotalGPU() > 1e-9 {
		t.Errorf("summary total %v != report %v", s.Total(), rep.MeasTotalGPU())
	}
}

func TestRenderGantt(t *testing.T) {
	rep := hotspotReport(t, 1)
	out, err := Render(FromReport(rep), 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"timeline (total", ">", "#", "<", "temp", "power"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The transfer bars should dominate the kernel bar (Table I).
	lines := strings.Split(out, "\n")
	countRun := func(sub string, marker rune) int {
		for _, l := range lines {
			if strings.Contains(l, sub) {
				return strings.Count(l, string(marker))
			}
		}
		return -1
	}
	kernelBar := countRun("hotspot_stencil", '#')
	uploadBar := countRun("temp ", '>')
	if kernelBar < 0 || uploadBar < 0 {
		t.Fatalf("bars not found:\n%s", out)
	}
	if uploadBar <= kernelBar {
		t.Errorf("upload bar (%d) should exceed kernel bar (%d) for HotSpot 512",
			uploadBar, kernelBar)
	}
}

func TestRenderCoalescesManyIterations(t *testing.T) {
	rep := hotspotReport(t, 100)
	out, err := Render(FromReport(rep), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kernels x100") {
		t.Errorf("100 iterations not coalesced:\n%s", out)
	}
	if len(strings.Split(out, "\n")) > 10 {
		t.Error("coalesced chart still too tall")
	}
}

func TestRenderErrors(t *testing.T) {
	if _, err := Render(nil, 60); err == nil {
		t.Error("empty events accepted")
	}
	rep := hotspotReport(t, 1)
	if _, err := Render(FromReport(rep), 5); err == nil {
		t.Error("tiny width accepted")
	}
}

func TestToTraceRoundTrip(t *testing.T) {
	rep := hotspotReport(t, 3)
	events := FromReport(rep)
	tr, err := ToTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("replayed trace ill-formed: %v", err)
	}
	// Every event's interval must be reproduced exactly by its span.
	children := tr.Root().Children()
	if len(children) != len(events) {
		t.Fatalf("spans = %d, want %d", len(children), len(events))
	}
	for i, sp := range children {
		iv := sp.Interval()
		if math.Abs(iv.Start-events[i].Start) > 1e-12 ||
			math.Abs(iv.Duration-events[i].Duration) > 1e-12 {
			t.Errorf("span %d interval [%g, %g] != event [%g, %g]",
				i, iv.Start, iv.Duration, events[i].Start, events[i].Duration)
		}
		if sp.Name() != events[i].Label {
			t.Errorf("span %d name %q != label %q", i, sp.Name(), events[i].Label)
		}
	}
	// The root span covers the full measured GPU time.
	rootDur := tr.Root().Interval().Duration
	if math.Abs(rootDur-rep.MeasTotalGPU())/rep.MeasTotalGPU() > 1e-9 {
		t.Errorf("root duration %v != report total %v", rootDur, rep.MeasTotalGPU())
	}
}

func TestToTraceRejectsOverlap(t *testing.T) {
	events := []Event{
		{Kind: Kernel, Label: "a", Interval: trace.Interval{Start: 0, Duration: 2}},
		{Kind: Kernel, Label: "b", Interval: trace.Interval{Start: 1, Duration: 2}},
	}
	if _, err := ToTrace(events); err == nil {
		t.Error("overlapping events accepted")
	}
}

func TestToTraceAllowsGaps(t *testing.T) {
	events := []Event{
		{Kind: Upload, Label: "a", Interval: trace.Interval{Start: 0, Duration: 1}},
		{Kind: Kernel, Label: "b", Interval: trace.Interval{Start: 3, Duration: 1}},
	}
	tr, err := ToTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Root().Interval().Duration; math.Abs(got-4) > 1e-12 {
		t.Errorf("root duration %v, want 4 (gap preserved)", got)
	}
}

func TestEventKindString(t *testing.T) {
	if Upload.String() != "upload" || Kernel.String() != "kernel" || Download.String() != "download" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Error("fallback string wrong")
	}
}
