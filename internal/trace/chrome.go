// Chrome trace_event export: the JSON object format consumed by
// chrome://tracing and by Perfetto's legacy importer. Every span
// becomes one complete ("ph":"X") event with microsecond timestamps
// in simulated time; span attributes ride along in "args".
package trace

import (
	"encoding/json"
	"fmt"
)

// ChromeEvent is one trace_event entry. The subset emitted here is
// the stable core of the format: complete events plus one metadata
// event naming the process.
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
// at export time extend to the current simulated clock. The export is
// deterministic: events appear depth-first in creation order and args
// keys are sorted by the JSON encoder.
func (s *Span) ChromeJSON() ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("trace: nil span")
	}
	s.tr.mu.Lock()
	doc := ChromeTrace{
		DisplayTimeUnit: "ms",
		TraceEvents: []ChromeEvent{{
			Name:  "process_name",
			Phase: "M",
			Pid:   1,
			Tid:   1,
			Args:  map[string]string{"name": s.name},
		}},
	}
	walkTimeline(s, 0, func(s *Span, _ int) {
		iv := s.intervalLocked()
		ev := ChromeEvent{
			Name:  s.name,
			Phase: "X",
			Ts:    iv.Start * 1e6,
			Dur:   iv.Duration * 1e6,
			Pid:   1,
			Tid:   1,
			Cat:   chromeCategory,
		}
		if attrs := s.sortedAttrsLocked(); len(attrs) > 0 {
			ev.Args = make(map[string]string, len(attrs))
			for _, a := range attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	})
	s.tr.mu.Unlock()
	return json.MarshalIndent(doc, "", "  ")
}
