package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the repeatability mode
// reads: each end-to-end metric's bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs the end-to-end benchmark n times on seeds seed …
// seed+n−1 and reports, for every metric, the median of the runs and
// its quartiles. The spread is (q3 − q1) / median, the figure the
// acceptance check compares with the metric's bound; a spread within a
// third of the bound is steady. The returned result carries the
// medians.
func repeatRuns(cfg runConfig, n int) (result, error) {
	if n < 2 {
		return result{}, fmt.Errorf("--repeat needs at least 2 runs, not %d", n)
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return result{}, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	var (
		runs []result
		out  result
	)
	for k := 0; k < n; k++ {
		c := cfg
		c.seed = cfg.seed + uint64(k)
		res, err := endToEnd(c)
		if err != nil {
			return result{}, fmt.Errorf("run %d (seed %d): %w", k+1, c.seed, err)
		}
		fmt.Printf("run %d/%d seed=%d:", k+1, n, c.seed)
		for _, m := range res.metrics {
			fmt.Printf(" %s=%.6g", m.name, m.value)
		}
		fmt.Println()
		out.attempted += res.attempted
		out.failed += res.failed
		out.problems = append(out.problems, res.problems...)
		runs = append(runs, res)
	}
	out.extra = append(out.extra, fmt.Sprintf("repeatability: %s, %d runs, seeds %d…%d", cfg.workload, n, cfg.seed, cfg.seed+uint64(n)-1))
	out.extra = append(out.extra, fmt.Sprintf("  %-22s %12s %12s %12s %8s %6s  %s", "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
	for i, m := range runs[0].metrics {
		vals := make([]float64, len(runs))
		for k, r := range runs {
			vals[k] = r.metrics[i].value
		}
		q1, q2, q3 := quartiles(vals)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict := "no bound"
		bound, ok := bounds[m.name]
		switch {
		case !ok:
		case spread <= bound/3:
			verdict = "steady (within a third of the bound)"
		case spread <= bound:
			verdict = "fits the bound"
		default:
			verdict = "TOO NOISY for the bound"
		}
		out.extra = append(out.extra, fmt.Sprintf("  %-22s %12.6g %12.6g %12.6g %7.2f%% %6.2f  %s", m.name, q1, q2, q3, 100*spread, bound, verdict))
		mm := m
		mm.value, mm.note = q2, fmt.Sprintf("median of %d runs", n)
		out.metrics = append(out.metrics, mm)
	}
	return out, nil
}
