package golden

import (
	"bytes"
	"testing"

	"grophecy/internal/report"
	"grophecy/internal/transform"
)

// TestReportsIdenticalWithCachesOnAndOff is the memoization soundness
// gate at the whole-pipeline level: every golden workload must render
// a byte-identical report with the transform cache disabled (pure
// cold computation), freshly enabled (miss path), and warm (hit
// path). Any divergence means the cache is returning something other
// than what the cold path computes — a correctness bug, not a
// performance bug.
func TestReportsIdenticalWithCachesOnAndOff(t *testing.T) {
	prev := transform.SetCacheEnabled(true)
	defer transform.SetCacheEnabled(prev)

	for _, name := range skeletons {
		t.Run(name, func(t *testing.T) {
			transform.SetCacheEnabled(false)
			cold := []byte(report.Text(evaluate(t, name)))

			// Re-enable: SetCacheEnabled(false) cleared the cache, so
			// the first warm run is all misses, the second all hits.
			transform.SetCacheEnabled(true)
			miss := []byte(report.Text(evaluate(t, name)))
			hit := []byte(report.Text(evaluate(t, name)))

			if !bytes.Equal(cold, miss) {
				t.Errorf("%s: cold and miss-path reports differ\n--- cold ---\n%s\n--- miss ---\n%s",
					name, cold, miss)
			}
			if !bytes.Equal(cold, hit) {
				t.Errorf("%s: cold and hit-path reports differ\n--- cold ---\n%s\n--- hit ---\n%s",
					name, cold, hit)
			}
			// And both must match the committed golden file: the
			// cache changes nothing about the pinned output.
			check(t, name+".txt", hit)
		})
	}
}
