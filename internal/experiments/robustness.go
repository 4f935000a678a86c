package experiments

import (
	"context"
	"fmt"
	"strings"

	"grophecy/internal/stats"
	"grophecy/internal/sweep"
	"grophecy/internal/trace"
)

// Robustness: the paper evaluates one physical machine; this
// reproduction can instantiate many statistically independent
// machines (different noise seeds) and check that the headline Table
// II conclusion — kernel-only >> transfer-only >> combined — is a
// property of the approach, not of one lucky seed. Machine instances
// are evaluated in parallel (each owns its simulators), with
// deterministic per-seed results.

// RobustnessResult aggregates Table II's application-weighted
// averages across machine instances.
type RobustnessResult struct {
	Seeds        []uint64
	KernelOnly   stats.Summary
	TransferOnly stats.Summary
	Both         stats.Summary
	// Flips counts seeds where the error ordering kernel-only >
	// transfer-only > combined did NOT hold.
	Flips int
}

// Robustness evaluates the full benchmark suite on n machine
// instances derived from the context's base seed.
func Robustness(baseSeed uint64, n int) (RobustnessResult, error) {
	return RobustnessCtx(context.Background(), baseSeed, n)
}

// RobustnessCtx is Robustness under a context: cancellation stops
// scheduling further machine instances and returns the context's
// error joined with any evaluation failures.
func RobustnessCtx(ctx context.Context, baseSeed uint64, n int) (RobustnessResult, error) {
	if n <= 0 {
		return RobustnessResult{}, fmt.Errorf("experiments: robustness needs at least one seed")
	}
	type point struct {
		kernelOnly, transferOnly, both float64
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		// Spread seeds deterministically; the constant is splitmix64's
		// increment, guaranteeing distinct streams.
		seeds[i] = baseSeed + uint64(i)*0x9e3779b97f4a7c15
	}
	points, err := sweep.RunCtx(ctx, n, 0, func(i int) (point, error) {
		// Seeds run concurrently: each gets its own run, so its spans
		// keep their own simulated clock.
		ctx, run := trace.StartRun(ctx, fmt.Sprintf("seed %d", i))
		defer run.End()
		ec, err := NewContext(seeds[i])
		if err != nil {
			return point{}, err
		}
		res, err := ec.Table2Ctx(ctx)
		if err != nil {
			return point{}, err
		}
		return point{
			kernelOnly:   res.AvgApps.KernelOnly,
			transferOnly: res.AvgApps.TransferOnly,
			both:         res.AvgApps.Both,
		}, nil
	})
	if err != nil {
		return RobustnessResult{}, err
	}

	ks := make([]float64, n)
	ts := make([]float64, n)
	bs := make([]float64, n)
	flips := 0
	for i, p := range points {
		ks[i], ts[i], bs[i] = p.kernelOnly, p.transferOnly, p.both
		if !(p.kernelOnly > p.transferOnly && p.transferOnly > p.both) {
			flips++
		}
	}
	return RobustnessResult{
		Seeds:        seeds,
		KernelOnly:   stats.Summarize(ks),
		TransferOnly: stats.Summarize(ts),
		Both:         stats.Summarize(bs),
		Flips:        flips,
	}, nil
}

// RenderRobustness prints the cross-seed study.
func RenderRobustness(r RobustnessResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness: Table II application-weighted averages over %d machine instances\n",
		len(r.Seeds))
	line := func(name string, s stats.Summary) {
		fmt.Fprintf(&b, "  %-14s mean %6.0f%%  stddev %5.1f%%  range [%.0f%%, %.0f%%]\n",
			name, 100*s.Mean, 100*s.StdDev, 100*s.Min, 100*s.Max)
	}
	line("kernel only", r.KernelOnly)
	line("transfer only", r.TransferOnly)
	line("combined", r.Both)
	fmt.Fprintf(&b, "error-ordering violations: %d of %d seeds\n", r.Flips, len(r.Seeds))
	return b.String()
}
