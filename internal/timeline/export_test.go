package timeline

import (
	"context"
	"fmt"

	"grophecy/internal/trace"
)

// ToTrace replays a sequential timeline into a trace tree: one child
// span per event under a "timeline" root, with the simulated clock
// advanced so every span reproduces its event's interval exactly.
// Gaps between events show up as unspanned root time; overlapping
// events are an error (the paper's execution model is sequential).
func ToTrace(events []Event) (*trace.Tracer, error) {
	t := trace.New("timeline")
	ctx := trace.With(context.Background(), t)
	for _, e := range events {
		now := t.Root().Interval().End()
		if e.Start < now-1e-12*(1+now) {
			return nil, fmt.Errorf("timeline: event %q starts at %g, before the previous event ends (%g)",
				e.Label, e.Start, now)
		}
		t.Root().Advance(e.Start - now)
		_, sp := trace.Start(ctx, e.Label, trace.String("kind", e.Kind.String()))
		sp.Advance(e.Duration)
		sp.End()
	}
	t.Close()
	return t, nil
}
