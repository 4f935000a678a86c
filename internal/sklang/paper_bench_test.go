package sklang

import (
	"testing"

	"grophecy/internal/bench"
)

// paperSources renders the ten paper workloads (bench.All) as skeleton
// source, the inputs grophecyd's warm /project traffic sends.
func paperSources(tb testing.TB) []string {
	tb.Helper()
	ws, err := bench.All()
	if err != nil {
		tb.Fatal(err)
	}
	srcs := make([]string, len(ws))
	for i, w := range ws {
		if srcs[i], err = Format(w); err != nil {
			tb.Fatal(err)
		}
	}
	return srcs
}

// BenchmarkParsePaperWorkloads parses the ten paper workloads in turn:
// one op is one Parse of about 1 KB of source.
func BenchmarkParsePaperWorkloads(b *testing.B) {
	srcs := paperSources(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}
