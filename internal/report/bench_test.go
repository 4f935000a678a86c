package report

import (
	"context"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
)

// paperReports projects the ten paper workloads on the default
// machine, the reports grophecyd's warm /project traffic encodes.
func paperReports(tb testing.TB) []core.Report {
	tb.Helper()
	ctx, err := experiments.NewContext(experiments.DefaultSeed)
	if err != nil {
		tb.Fatal(err)
	}
	reps := make([]core.Report, 0, 10)
	for _, w := range bench.MustAll() {
		r, err := ctx.P.Evaluate(context.Background(), w)
		if err != nil {
			tb.Fatal(err)
		}
		reps = append(reps, r)
	}
	return reps
}

// BenchmarkReportJSON encodes the ten paper reports in turn: one op is
// one report.JSON call.
func BenchmarkReportJSON(b *testing.B) {
	reps := paperReports(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JSON(reps[i%len(reps)]); err != nil {
			b.Fatal(err)
		}
	}
}
