// Package timeline reconstructs and renders the execution timeline a
// GROPHECY++ report implies: uploads, the per-iteration kernel
// launches, and downloads, laid out as an ASCII Gantt chart.
//
// The paper's execution model is strictly sequential (synchronous
// cudaMemcpy, one kernel at a time, §II-B/IV-A), so the timeline is a
// single track; the value is seeing *where the time goes* — for most
// workloads the bars make the two-thirds transfer share viscerally
// obvious.
package timeline

import (
	"fmt"
	"strings"

	"grophecy/internal/core"
	"grophecy/internal/trace"
	"grophecy/internal/units"
)

// EventKind classifies a timeline entry.
type EventKind int

const (
	// Upload is a host-to-device transfer.
	Upload EventKind = iota
	// Kernel is one kernel invocation (aggregated across iterations
	// in the rendering).
	Kernel
	// Download is a device-to-host transfer.
	Download
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Upload:
		return "upload"
	case Kernel:
		return "kernel"
	case Download:
		return "download"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timeline entry, with measured times. Its interval is
// trace.Interval — the single home of simulated-time interval
// arithmetic — so Start, Duration, and End() come from there.
type Event struct {
	Kind  EventKind
	Label string
	// Interval is the event's [Start, Start+Duration) window in
	// seconds from the beginning of the offloaded region.
	trace.Interval
}

// FromReport reconstructs the sequential timeline of a report:
// uploads in plan order, then Iterations rounds of the kernel list,
// then downloads. Kernel durations use the per-invocation measured
// means; transfers use their measured means.
func FromReport(r core.Report) []Event {
	events := make([]Event, 0, len(r.Transfers)+r.Iterations*len(r.Kernels))
	t := 0.0
	add := func(kind EventKind, label string, d float64) {
		events = append(events, Event{Kind: kind, Label: label,
			Interval: trace.Interval{Start: t, Duration: d}})
		t += d
	}
	for _, tr := range r.Transfers {
		if tr.Transfer.Dir.String() == "upload" {
			add(Upload, tr.Transfer.Array().Name, tr.Measured)
		}
	}
	for it := 0; it < r.Iterations; it++ {
		for _, k := range r.Kernels {
			label := k.Kernel
			if r.Iterations > 1 {
				label = fmt.Sprintf("%s#%d", k.Kernel, it+1)
			}
			add(Kernel, label, k.Measured)
		}
	}
	for _, tr := range r.Transfers {
		if tr.Transfer.Dir.String() == "download" {
			add(Download, tr.Transfer.Array().Name, tr.Measured)
		}
	}
	return events
}

// Chart renders a report's timeline: Render(FromReport(r), width).
func Chart(r core.Report, width int) (string, error) {
	return Render(FromReport(r), width)
}

// markers maps event kinds to bar characters.
var markers = map[EventKind]rune{
	Upload:   '>',
	Kernel:   '#',
	Download: '<',
}

// Render draws the timeline as an ASCII Gantt chart of the given
// width. Events shorter than one column still get one marker, so
// nothing disappears; consecutive kernel iterations collapse into one
// row when there are more than maxRows events.
func Render(events []Event, width int) (string, error) {
	if width < 20 {
		return "", fmt.Errorf("timeline: width %d too small", width)
	}
	if len(events) == 0 {
		return "", fmt.Errorf("timeline: no events")
	}
	events = coalesce(events, 24)

	total := events[len(events)-1].End()
	if total <= 0 {
		return "", fmt.Errorf("timeline: zero total duration")
	}
	scale := float64(width) / total

	labelW := 0
	for _, e := range events {
		if len(e.Label) > labelW {
			labelW = len(e.Label)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "timeline (total %s; '>' upload, '#' kernel, '<' download)\n",
		units.FormatSeconds(total))
	for _, e := range events {
		startCol := int(e.Start * scale)
		barLen := int(e.Duration * scale)
		if barLen < 1 {
			barLen = 1
		}
		if startCol+barLen > width {
			barLen = width - startCol
			if barLen < 1 {
				startCol, barLen = width-1, 1
			}
		}
		fmt.Fprintf(&b, "%-*s |%s%s%s| %s\n",
			labelW, e.Label,
			strings.Repeat(" ", startCol),
			strings.Repeat(string(markers[e.Kind]), barLen),
			strings.Repeat(" ", width-startCol-barLen),
			units.FormatSeconds(e.Duration))
	}
	return b.String(), nil
}

// coalesce folds long runs of kernel iterations into aggregate rows
// so the chart stays readable.
func coalesce(events []Event, maxRows int) []Event {
	if len(events) <= maxRows {
		return events
	}
	// Separate the phases.
	var ups, kernels, downs []Event
	for _, e := range events {
		switch e.Kind {
		case Upload:
			ups = append(ups, e)
		case Kernel:
			kernels = append(kernels, e)
		default:
			downs = append(downs, e)
		}
	}
	if len(kernels) == 0 {
		return events
	}
	agg := Event{
		Kind:  Kernel,
		Label: fmt.Sprintf("kernels x%d", len(kernels)),
		Interval: trace.Interval{
			Start:    kernels[0].Start,
			Duration: kernels[len(kernels)-1].End() - kernels[0].Start,
		},
	}
	out := append(append([]Event{}, ups...), agg)
	return append(out, downs...)
}

// Summary aggregates the timeline by kind.
type Summary struct {
	UploadTime   float64
	KernelTime   float64
	DownloadTime float64
}

// Summarize totals the event durations by kind.
func Summarize(events []Event) Summary {
	var s Summary
	for _, e := range events {
		switch e.Kind {
		case Upload:
			s.UploadTime += e.Duration
		case Kernel:
			s.KernelTime += e.Duration
		case Download:
			s.DownloadTime += e.Duration
		}
	}
	return s
}

// Total returns the summed duration.
func (s Summary) Total() float64 { return s.UploadTime + s.KernelTime + s.DownloadTime }
