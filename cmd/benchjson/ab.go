// The ab subcommand: summarize an interleaved same-host benchmark A/B
// and enforce the repository's benchmark regression gate.
//
//	benchjson ab [-metric-max rules] BASE.txt HEAD.txt
//
// BASE.txt and HEAD.txt hold the raw `go test -bench -benchmem` output
// of the two sides, run in alternation (scripts/bench-ab.sh): the i-th
// result of a benchmark on each side sampled the same minutes of
// machine load, and the two form pair i. Benchmarks are keyed by
// package and name, not GOMAXPROCS. Per benchmark it prints each
// side's median and quartiles of ns/op, the change of the median, the
// pairs the head won on ns/op, and each side's median allocs/op.
//
// Every benchmark is gated. The gate fails when a benchmark's head
// median ns/op is more than nsThresholdPct above its base median, its
// head median allocs/op more than allocsThresholdPct above the base
// median (0 -> 1 included), when it ran on base but not on head, or
// when the median of the head runs exceeds a -metric-max bound.
//
// Exit codes: 0 no regression, 1 regression, 2 malformed input
// (unreadable file, no benchmark results, bad flags or arguments).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The gate's thresholds, in percent of the base median.
const (
	nsThresholdPct     = 15
	allocsThresholdPct = 10
)

// defaultMetricMax is the telemetry-overhead gate:
// BenchmarkTelemetryOverhead alternates bare and traced projection
// blocks inside one timing loop — both sides sample the same machine
// weather — and reports the relative cost of request telemetry as
// its overhead-pct metric, which may not exceed 5.
const defaultMetricMax = "TelemetryOverhead:overhead-pct=5"

// benchKey identifies one benchmark on both sides. GOMAXPROCS is not
// part of it, so a side run with another CPU count still pairs.
type benchKey struct {
	pkg  string
	name string
}

func (k benchKey) String() string { return k.pkg + " " + k.name }

// quartiles holds the first quartile, median and third quartile of a
// sample.
type quartiles struct{ q1, med, q3 float64 }

// abRow is one benchmark's comparison of the two sides.
type abRow struct {
	key                    benchKey
	nBase, nHead           int       // runs per side
	base, head             quartiles // ns/op
	baseAllocs, headAllocs float64   // median allocs/op
	won                    int       // pairs whose head ran faster
}

// abReport is the whole comparison.
type abReport struct {
	rows   []abRow
	bounds []string // one summary line per -metric-max rule
	fails  []string // every gate failure, naming its benchmark
}

// runAB implements `benchjson ab`. It writes the summary to stdout and
// diagnostics to stderr, and returns the process exit code.
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	metricFlag := fs.String("metric-max", defaultMetricMax,
		"custom-metric upper bounds as comma-separated name:metric=max entries")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchjson ab [flags] BASE.txt HEAD.txt")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	bounds, err := splitMetricMax(*metricFlag)
	var sides [2]*Document
	for i := 0; err == nil && i < 2; i++ {
		sides[i], err = loadRuns(fs.Arg(i))
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchjson ab:", err)
		return 2
	}
	rep := diff(sides[0], sides[1], bounds)
	render(stdout, rep)
	if len(rep.fails) > 0 {
		fmt.Fprintf(stderr, "benchjson ab: %d regression(s) against %s\n", len(rep.fails), fs.Arg(0))
		return 1
	}
	return 0
}

// loadRuns parses one side's raw benchmark output.
func loadRuns(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := parse(bufio.NewScanner(f))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// diff compares every benchmark of the two sides, in order of first
// appearance (base first), and checks the metric bounds on the head.
func diff(base, head *Document, bounds []metricRule) *abReport {
	baseRuns := make(map[benchKey][]Result)
	headRuns := make(map[benchKey][]Result)
	var keys []benchKey
	for _, side := range []struct {
		doc  *Document
		runs map[benchKey][]Result
	}{{base, baseRuns}, {head, headRuns}} {
		for _, r := range side.doc.Benchmarks {
			k := benchKey{r.Package, r.Name}
			if baseRuns[k] == nil && headRuns[k] == nil {
				keys = append(keys, k)
			}
			side.runs[k] = append(side.runs[k], r)
		}
	}

	rep := &abReport{}
	fail := func(k benchKey, format string, args ...any) {
		rep.fails = append(rep.fails, k.String()+": "+fmt.Sprintf(format, args...))
	}
	for _, k := range keys {
		row := newRow(k, baseRuns[k], headRuns[k])
		rep.rows = append(rep.rows, row)
		switch {
		case row.nHead == 0:
			fail(k, "ran on base but not on head")
		case row.nBase == 0:
		default:
			if row.base.med > 0 && row.head.med > row.base.med*(1+nsThresholdPct/100.0) {
				fail(k, "median ns/op %s exceeds the %d%% threshold", row.delta(), nsThresholdPct)
			}
			// head > base*(1+thr) covers 0 -> 1 too: any allocation
			// appearing on an allocation-free benchmark fails.
			if row.headAllocs > row.baseAllocs*(1+allocsThresholdPct/100.0) {
				fail(k, "median allocs/op %.0f -> %.0f exceeds the %d%% threshold",
					row.baseAllocs, row.headAllocs, allocsThresholdPct)
			}
		}
	}
	applyMetricMax(rep, baseRuns, headRuns, bounds)
	return rep
}

// newRow summarizes one benchmark's runs on each side; the statistics
// stay zero unless it ran on both.
func newRow(k benchKey, b, h []Result) abRow {
	row := abRow{key: k, nBase: len(b), nHead: len(h)}
	if len(b) == 0 || len(h) == 0 {
		return row
	}
	ns := func(r Result) float64 { return r.NsPerOp }
	allocs := func(r Result) float64 { return float64(r.AllocsPerOp) }
	row.base, row.head = quartilesOf(b, ns), quartilesOf(h, ns)
	row.baseAllocs, row.headAllocs = quartilesOf(b, allocs).med, quartilesOf(h, allocs).med
	for i := 0; i < min(len(b), len(h)); i++ {
		if h[i].NsPerOp < b[i].NsPerOp {
			row.won++
		}
	}
	return row
}

// delta is the relative change of the median ns/op as a display
// string, "n/a" when the base median is zero.
func (r abRow) delta() string {
	if r.base.med <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(r.head.med/r.base.med-1))
}

// quartilesOf returns the quartiles of field over runs, interpolating
// linearly between order statistics.
func quartilesOf(runs []Result, field func(Result) float64) quartiles {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = field(r)
	}
	sort.Float64s(v)
	q := func(p float64) float64 {
		h := float64(len(v)-1) * p
		l := int(h)
		if l+1 >= len(v) {
			return v[len(v)-1]
		}
		return v[l] + (h-float64(l))*(v[l+1]-v[l])
	}
	return quartiles{q(0.25), q(0.5), q(0.75)}
}

// metricRule is one parsed -metric-max entry: the named benchmark's
// custom metric may not exceed max.
type metricRule struct {
	name, metric string
	max          float64
}

// splitMetricMax parses the -metric-max flag value
// ("name:metric=max" entries, comma-separated).
func splitMetricMax(s string) ([]metricRule, error) {
	var out []metricRule
	for _, entry := range strings.Split(s, ",") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		spec, max, okMax := strings.Cut(entry, "=")
		name, metric, okName := strings.Cut(spec, ":")
		name, metric = strings.TrimSpace(name), strings.TrimSpace(metric)
		v, err := strconv.ParseFloat(strings.TrimSpace(max), 64)
		if !okMax || !okName || name == "" || metric == "" || err != nil {
			return nil, fmt.Errorf("bad -metric-max entry %q (want name:metric=max)", entry)
		}
		out = append(out, metricRule{name, metric, v})
	}
	return out, nil
}

// applyMetricMax checks the custom-metric upper bounds against the
// median of the head runs. A bounded metric is measured within one run
// (TelemetryOverhead interleaves its bare and traced sides), so the
// base runs only detect removal: deleting the benchmark must not
// disable its bound. A benchmark on neither side is skipped; every
// head run must report the metric.
func applyMetricMax(rep *abReport, baseRuns, headRuns map[benchKey][]Result, rules []metricRule) {
	byName := func(runs map[benchKey][]Result, name string) []Result {
		for k, r := range runs {
			if k.name == name {
				return r
			}
		}
		return nil
	}
	for _, rule := range rules {
		head := byName(headRuns, rule.name)
		status, reason, value := "ok", "", 0.0
		switch {
		case head == nil && byName(baseRuns, rule.name) != nil:
			status, reason = "regression", "ran on base but not on head"
		case head == nil:
			status = "skipped"
		default:
			reported := true
			for _, r := range head {
				_, ok := r.Metrics[rule.metric]
				reported = reported && ok
			}
			if !reported {
				status, reason = "regression", "reports no "+rule.metric+" metric"
				break
			}
			value = quartilesOf(head, func(r Result) float64 { return r.Metrics[rule.metric] }).med
			if value > rule.max {
				status, reason = "regression", fmt.Sprintf("median %s %.2f exceeds bound %.2f", rule.metric, value, rule.max)
			}
		}
		rep.bounds = append(rep.bounds, fmt.Sprintf("bound %s %s: %.2f (max %.2f) %s",
			rule.name, rule.metric, value, rule.max, status))
		if reason != "" {
			rep.fails = append(rep.fails, rule.name+": "+reason)
		}
	}
}

// render writes the summary table, the metric bounds and a FAIL line
// per gate failure.
func render(w io.Writer, rep *abReport) {
	fmt.Fprintf(w, "%-50s %28s %28s %7s %5s %16s %16s\n", "benchmark",
		"base ns/op [q1 q3]", "head ns/op [q1 q3]", "delta", "won", "base allocs/op", "head allocs/op")
	for _, r := range rep.rows {
		switch {
		case r.nHead == 0:
			fmt.Fprintf(w, "%-50s only on base\n", r.key)
		case r.nBase == 0:
			fmt.Fprintf(w, "%-50s only on head\n", r.key)
		default:
			fmt.Fprintf(w, "%-50s %10.0f [%7.0f %7.0f] %10.0f [%7.0f %7.0f] %7s %2d/%-2d %16.0f %16.0f\n", r.key,
				r.base.med, r.base.q1, r.base.q3, r.head.med, r.head.q1, r.head.q3,
				r.delta(), r.won, min(r.nBase, r.nHead), r.baseAllocs, r.headAllocs)
		}
	}
	for _, b := range rep.bounds {
		fmt.Fprintln(w, b)
	}
	for _, f := range rep.fails {
		fmt.Fprintln(w, "FAIL", f)
	}
	fmt.Fprintf(w, "%d benchmark(s), %d regression(s); thresholds ns/op %d%%, allocs/op %d%% of the base median\n",
		len(rep.rows), len(rep.fails), nsThresholdPct, allocsThresholdPct)
}
