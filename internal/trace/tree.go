// Human-readable tree rendering of a trace, for terminals. Chrome
// JSON is for tooling; this is for eyeballs.
package trace

import (
	"fmt"
	"strings"

	"grophecy/internal/units"
)

// Tree renders the trace's root run as an indented tree: one line per
// span with its simulated duration, its share of the root duration,
// and its attributes. Zero-duration structural spans print without a
// share; service spans are skipped, as in the Chrome export.
func (t *Tracer) Tree() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return ""
	}
	total := t.root.intervalLocked().Duration
	var b strings.Builder
	walkTimeline(t.root, 0, func(s *Span, depth int) {
		iv := s.intervalLocked()
		fmt.Fprintf(&b, "%s%s %s", strings.Repeat("  ", depth), s.name,
			units.FormatSeconds(iv.Duration))
		if total > 0 && iv.Duration > 0 && depth > 0 {
			fmt.Fprintf(&b, " (%.1f%%)", 100*iv.Duration/total)
		}
		if attrs := s.sortedAttrsLocked(); len(attrs) > 0 {
			parts := make([]string, len(attrs))
			for i, a := range attrs {
				parts[i] = a.Key + "=" + a.Value
			}
			fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
	})
	return b.String()
}
