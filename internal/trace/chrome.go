// Chrome trace_event export: the JSON object format consumed by
// chrome://tracing and by Perfetto's legacy importer. Every span
// becomes one complete ("ph":"X") event with microsecond timestamps
// in simulated time; span attributes ride along in "args". Each run
// draws on its own thread, on its own clock.
package trace

import (
	"encoding/json"
	"fmt"
)

// ChromeEvent is one trace_event entry. The subset emitted here is
// the stable core of the format: complete events plus metadata events
// naming the process and each nested run's thread.
type ChromeEvent struct {
	Name string `json:"name"`
	// Phase is "X" for complete events and "M" for metadata.
	Phase string `json:"ph"`
	// Ts and Dur are microseconds of simulated time.
	Ts  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`
	Pid int     `json:"pid"`
	Tid int     `json:"tid"`
	Cat string  `json:"cat,omitempty"`
	// Args carries span attributes; JSON marshaling sorts the keys,
	// keeping the export deterministic.
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON object.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeCategory labels every span event; viewers use it for
// filtering.
const chromeCategory = "sim"

// ChromeJSON exports the trace's root run as a Chrome trace_event
// JSON document (see Span.ChromeJSON).
func (t *Tracer) ChromeJSON() ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("trace: nil tracer")
	}
	return t.Root().ChromeJSON()
}

// ChromeJSON exports the span's subtree — normally a run — as a Chrome
// trace_event JSON document in simulated time. Service spans are
// skipped and their children emitted in their place; spans still open
// at export time extend to the current simulated clock. The span's own
// timeline is thread 1. Every run nested under it gets the next thread,
// in the order the runs are found, introduced by a thread_name event
// and timed on the run's own clock. The export is deterministic for a
// deterministic tree: events appear depth-first in creation order and
// args keys are sorted by the JSON encoder. Runs started from
// concurrent workers must therefore be opened in a fixed order first.
func (s *Span) ChromeJSON() ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("trace: nil span")
	}
	s.tr.mu.Lock()
	doc := ChromeTrace{DisplayTimeUnit: "ms"}
	threads := []*Span{s}
	addRun := func(run *Span) { threads = append(threads, run) }
	for tid := 1; tid <= len(threads); tid++ {
		// Thread 1's metadata event names the process.
		meta := "thread_name"
		if tid == 1 {
			meta = "process_name"
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name:  meta,
			Phase: "M",
			Pid:   1,
			Tid:   tid,
			Args:  map[string]string{"name": threads[tid-1].name},
		})
		walkTimeline(threads[tid-1], 0, func(s *Span, _ int) {
			iv := s.intervalLocked()
			ev := ChromeEvent{
				Name:  s.name,
				Phase: "X",
				Ts:    iv.Start * 1e6,
				Dur:   iv.Duration * 1e6,
				Pid:   1,
				Tid:   tid,
				Cat:   chromeCategory,
			}
			if attrs := s.sortedAttrsLocked(); len(attrs) > 0 {
				ev.Args = make(map[string]string, len(attrs))
				for _, a := range attrs {
					ev.Args[a.Key] = a.Value
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
			eachTimelineChild(s, kindRun, addRun)
		})
	}
	s.tr.mu.Unlock()
	return json.MarshalIndent(doc, "", "  ")
}
