// The diff subcommand: compare two benchjson documents and enforce
// the benchmark regression gate.
//
//	benchjson diff [flags] OLD.json NEW.json
//
// Every benchmark present in either document gets a row. Benchmarks
// named by -gate (exact name or any of its sub-benchmarks) are
// *gated*: the command fails when a gated benchmark slows down by
// more than -ns-threshold percent, grows its allocations by more than
// -allocs-threshold percent, or disappears from the new document.
// Ungated rows and newly appearing benchmarks are informational.
// -pair rules additionally budget one benchmark against another
// *within* the new document (telemetry overhead vs the bare
// projection), immune to cross-run machine drift.
//
// Exit codes: 0 no gated regression, 1 gated regression, 2 malformed
// input (unreadable file, bad JSON, empty document, bad flags).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// defaultGate names the hot-path benchmarks the repository gates by
// default; see docs/BENCHMARKS.md.
const defaultGate = "EndToEndProjection,EndToEndProjectionTelemetry,Enumerate,Union,Intersect,TransferPinned,TransferPageable,Fig2TransferSweep"

// defaultNsOverrides tightens the ns/op threshold for individual
// gated benchmarks (name=percent pairs). Empty by default: cross-run
// absolute deltas on a shared host carry the machine's load state, so
// per-benchmark budgets tighter than the global threshold live in the
// within-run pair rules (defaultPairs) instead. The flag remains for
// explicitly tightening a benchmark on a machine quiet enough to
// support it.
const defaultNsOverrides = ""

// defaultPairs is empty: even two benchmarks of the same run sample
// the machine minutes apart, which on a loaded host is enough for
// their noise floors to diverge past any honest budget. The -pair
// flag remains for machines quiet enough to support it; the default
// telemetry-overhead gate is the metric bound below, whose benchmark
// interleaves its two sides within the same seconds.
const defaultPairs = ""

// defaultMetricMax is the telemetry-overhead gate:
// BenchmarkTelemetryOverhead alternates bare and traced projection
// blocks inside one timing loop — both sides sample the same machine
// weather — and reports the relative cost of request telemetry as
// its overhead-pct metric, which may not exceed 5.
const defaultMetricMax = "TelemetryOverhead:overhead-pct=5"

// DiffRow is the comparison of one benchmark across the two
// documents.
type DiffRow struct {
	Package string `json:"package"`
	Name    string `json:"name"`
	Procs   int    `json:"procs"`

	OldNsPerOp float64 `json:"oldNsPerOp,omitempty"`
	NewNsPerOp float64 `json:"newNsPerOp,omitempty"`
	// NsDelta is the relative ns/op change as a display string
	// ("+12.3%", "-4.0%", or "n/a" when the baseline is zero or the
	// benchmark exists on one side only).
	NsDelta string `json:"nsDelta"`

	OldAllocsPerOp int64 `json:"oldAllocsPerOp"`
	NewAllocsPerOp int64 `json:"newAllocsPerOp"`
	// AllocsDelta is the relative allocs/op change as a display
	// string, "n/a" when not comparable.
	AllocsDelta string `json:"allocsDelta"`

	// Gated reports whether the row participates in the gate.
	Gated bool `json:"gated"`
	// Status is one of "ok", "improved", "regression", "new",
	// "removed".
	Status string `json:"status"`
	// Reasons explains a "regression" status.
	Reasons []string `json:"reasons,omitempty"`
}

// PairResult is the outcome of one within-run pair rule: the Name
// benchmark's ns/op in the new document, compared against the Base
// benchmark's ns/op in the same document.
type PairResult struct {
	Name         string  `json:"name"`
	Base         string  `json:"base"`
	NameNsPerOp  float64 `json:"nameNsPerOp,omitempty"`
	BaseNsPerOp  float64 `json:"baseNsPerOp,omitempty"`
	ThresholdPct float64 `json:"thresholdPct"`
	// Delta is the relative cost of Name over Base as a display
	// string ("+2.3%"), "n/a" when not comparable.
	Delta string `json:"delta"`
	// Status is "ok", "regression", or "skipped" (Name absent from
	// the new document — its removal is the gate list's business).
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// MetricBoundResult is the outcome of one -metric-max rule: a custom
// benchmark metric in the new document checked against an upper
// bound.
type MetricBoundResult struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Max    float64 `json:"max"`
	Value  float64 `json:"value,omitempty"`
	// Status is "ok", "regression", or "skipped" (the benchmark
	// appears in neither document). A benchmark present in the old
	// document but missing from the new one is a regression — removal
	// must not silently disable the bound — as is a present benchmark
	// that stops reporting the metric.
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// DiffReport is the full machine-readable diff.
type DiffReport struct {
	NsThresholdPct     float64 `json:"nsThresholdPct"`
	AllocsThresholdPct float64 `json:"allocsThresholdPct"`
	// NsOverridesPct maps benchmark names to per-benchmark ns/op
	// thresholds that replace NsThresholdPct for that benchmark (and
	// its sub-benchmarks).
	NsOverridesPct map[string]float64 `json:"nsOverridesPct,omitempty"`
	Gate           []string           `json:"gate"`
	Rows           []DiffRow          `json:"rows"`
	// Pairs holds the within-run relative budget checks evaluated on
	// the new document alone.
	Pairs []PairResult `json:"pairs,omitempty"`
	// MetricBounds holds the custom-metric upper bounds evaluated on
	// the new document alone.
	MetricBounds []MetricBoundResult `json:"metricBounds,omitempty"`
	// Regressions counts rows and pairs with status "regression"; the
	// gate fails when it is non-zero.
	Regressions int `json:"regressions"`
}

// runDiff implements `benchjson diff`. It writes the report to stdout
// and diagnostics to stderr, and returns the process exit code.
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nsThr := fs.Float64("ns-threshold", 15,
		"gated ns/op regression threshold in percent")
	allocThr := fs.Float64("allocs-threshold", 10,
		"gated allocs/op regression threshold in percent")
	gateFlag := fs.String("gate", defaultGate,
		"comma-separated benchmark names to gate (sub-benchmarks included)")
	overFlag := fs.String("ns-override", defaultNsOverrides,
		"per-benchmark ns/op thresholds as comma-separated name=percent pairs")
	pairFlag := fs.String("pair", defaultPairs,
		"within-run relative budgets as comma-separated name=base:percent entries")
	metricFlag := fs.String("metric-max", defaultMetricMax,
		"custom-metric upper bounds as comma-separated name:metric=max entries")
	asJSON := fs.Bool("json", false, "emit the diff as JSON instead of a table")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchjson diff [flags] OLD.json NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldDoc, err := loadDocument(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson diff:", err)
		return 2
	}
	newDoc, err := loadDocument(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson diff:", err)
		return 2
	}

	overrides, err := splitOverrides(*overFlag)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson diff:", err)
		return 2
	}
	pairs, err := splitPairs(*pairFlag)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson diff:", err)
		return 2
	}
	bounds, err := splitMetricMax(*metricFlag)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson diff:", err)
		return 2
	}

	rep := diffDocuments(oldDoc, newDoc, *nsThr, *allocThr, splitGate(*gateFlag), overrides)
	applyPairs(rep, newDoc, pairs)
	applyMetricMax(rep, oldDoc, newDoc, bounds)
	if *asJSON {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchjson diff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		renderDiff(stdout, rep)
	}
	if rep.Regressions > 0 {
		fmt.Fprintf(stderr, "benchjson diff: %d gated regression(s) against %s\n",
			rep.Regressions, fs.Arg(0))
		return 1
	}
	return 0
}

// loadDocument reads and validates one benchjson document.
func loadDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in document", path)
	}
	return &doc, nil
}

// splitGate parses the -gate flag value.
func splitGate(s string) []string {
	var out []string
	for _, g := range strings.Split(s, ",") {
		if g = strings.TrimSpace(g); g != "" {
			out = append(out, g)
		}
	}
	return out
}

// splitOverrides parses the -ns-override flag value into a threshold
// map.
func splitOverrides(s string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		name, pct, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -ns-override entry %q (want name=percent)", pair)
		}
		var v float64
		if _, err := fmt.Sscanf(pct, "%g", &v); err != nil || v < 0 {
			return nil, fmt.Errorf("bad -ns-override percentage %q", pct)
		}
		out[strings.TrimSpace(name)] = v
	}
	return out, nil
}

// pairRule is one parsed -pair entry: the name benchmark may be at
// most pct percent slower than the base benchmark within one run.
type pairRule struct {
	name, base string
	pct        float64
}

// splitPairs parses the -pair flag value ("name=base:percent" entries,
// comma-separated).
func splitPairs(s string) ([]pairRule, error) {
	var out []pairRule
	for _, entry := range strings.Split(s, ",") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad -pair entry %q (want name=base:percent)", entry)
		}
		base, pct, ok := strings.Cut(rest, ":")
		if !ok || strings.TrimSpace(base) == "" {
			return nil, fmt.Errorf("bad -pair entry %q (want name=base:percent)", entry)
		}
		var v float64
		if _, err := fmt.Sscanf(pct, "%g", &v); err != nil || v < 0 {
			return nil, fmt.Errorf("bad -pair percentage %q", pct)
		}
		out = append(out, pairRule{
			name: strings.TrimSpace(name),
			base: strings.TrimSpace(base),
			pct:  v,
		})
	}
	return out, nil
}

// applyPairs evaluates the within-run pair budgets on the new
// document and appends the results (and any regressions) to the
// report. Both sides of a pair come from the same benchmark run, so
// the machine's load state divides out of the comparison — this is
// what makes a tight relative budget enforceable on a host whose
// absolute numbers drift between runs. A pair whose name benchmark is
// absent is skipped: if the name is gated, its removal already fails
// the gate list check.
func applyPairs(rep *DiffReport, newDoc *Document, pairs []pairRule) {
	if len(pairs) == 0 {
		return
	}
	newBy := collectMin(newDoc)
	for _, p := range pairs {
		res := PairResult{Name: p.name, Base: p.base, ThresholdPct: p.pct, Delta: "n/a"}
		var nameR, baseR *Result
		for k := range newBy {
			switch k.name {
			case p.name:
				r := newBy[k]
				nameR = &r
			case p.base:
				r := newBy[k]
				baseR = &r
			}
		}
		switch {
		case nameR == nil:
			res.Status = "skipped"
			res.Reason = fmt.Sprintf("%s absent from new document", p.name)
		case baseR == nil:
			res.Status = "regression"
			res.Reason = fmt.Sprintf("pair base %s absent from new document", p.base)
		case baseR.NsPerOp <= 0:
			res.Status = "regression"
			res.NameNsPerOp, res.BaseNsPerOp = nameR.NsPerOp, baseR.NsPerOp
			res.Reason = fmt.Sprintf("pair base %s has no ns/op figure", p.base)
		default:
			res.NameNsPerOp, res.BaseNsPerOp = nameR.NsPerOp, baseR.NsPerOp
			pct := (nameR.NsPerOp - baseR.NsPerOp) / baseR.NsPerOp * 100
			res.Delta = fmt.Sprintf("%+.1f%%", pct)
			res.Status = "ok"
			if nameR.NsPerOp > baseR.NsPerOp*(1+p.pct/100) {
				res.Status = "regression"
				res.Reason = fmt.Sprintf("%s costs %+.1f%% over %s, budget %.0f%%",
					p.name, pct, p.base, p.pct)
			}
		}
		if res.Status == "regression" {
			rep.Regressions++
		}
		rep.Pairs = append(rep.Pairs, res)
	}
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
		spec, max, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad -metric-max entry %q (want name:metric=max)", entry)
		}
		name, metric, ok := strings.Cut(spec, ":")
		if !ok || strings.TrimSpace(name) == "" || strings.TrimSpace(metric) == "" {
			return nil, fmt.Errorf("bad -metric-max entry %q (want name:metric=max)", entry)
		}
		var v float64
		if _, err := fmt.Sscanf(max, "%g", &v); err != nil {
			return nil, fmt.Errorf("bad -metric-max bound %q", max)
		}
		out = append(out, metricRule{
			name:   strings.TrimSpace(name),
			metric: strings.TrimSpace(metric),
			max:    v,
		})
	}
	return out, nil
}

// applyMetricMax evaluates the custom-metric upper bounds on the new
// document and appends the results (and any regressions) to the
// report. Bounds are for benchmarks that measure a machine-immune
// figure internally (e.g. TelemetryOverhead interleaves its bare and
// traced sides in one loop), so the value needs no old-document
// comparison; the old document is consulted only to detect removal —
// a bound whose benchmark was present and disappeared must fail, or
// deleting the benchmark would disable the gate. A benchmark in
// neither document is skipped, so bounds don't fire on unrelated
// snapshots.
func applyMetricMax(rep *DiffReport, oldDoc, newDoc *Document, rules []metricRule) {
	if len(rules) == 0 {
		return
	}
	oldBy := collectMin(oldDoc)
	newBy := collectMin(newDoc)
	for _, rule := range rules {
		res := MetricBoundResult{Name: rule.name, Metric: rule.metric, Max: rule.max}
		var found *Result
		for k := range newBy {
			if k.name == rule.name {
				r := newBy[k]
				found = &r
				break
			}
		}
		inOld := false
		for k := range oldBy {
			if k.name == rule.name {
				inOld = true
				break
			}
		}
		switch {
		case found == nil && inOld:
			res.Status = "regression"
			res.Reason = fmt.Sprintf("%s removed from new document", rule.name)
		case found == nil:
			res.Status = "skipped"
			res.Reason = fmt.Sprintf("%s absent from both documents", rule.name)
		default:
			v, ok := found.Metrics[rule.metric]
			if !ok {
				res.Status = "regression"
				res.Reason = fmt.Sprintf("%s reports no %s metric", rule.name, rule.metric)
				break
			}
			res.Value = v
			res.Status = "ok"
			if v > rule.max {
				res.Status = "regression"
				res.Reason = fmt.Sprintf("%s %s = %.2f exceeds bound %.2f",
					rule.name, rule.metric, v, rule.max)
			}
		}
		if res.Status == "regression" {
			rep.Regressions++
		}
		rep.MetricBounds = append(rep.MetricBounds, res)
	}
}

// nsThresholdFor resolves the effective ns/op threshold for one
// benchmark: an exact or parent-benchmark override wins over the
// global threshold.
func nsThresholdFor(name string, global float64, overrides map[string]float64) float64 {
	for g, pct := range overrides {
		if name == g || strings.HasPrefix(name, g+"/") {
			return pct
		}
	}
	return global
}

// isGated reports whether a benchmark name is covered by the gate:
// either an exact gate name or a sub-benchmark of one
// ("Transfer/pinned-4KB" is gated by "Transfer").
func isGated(name string, gate []string) bool {
	for _, g := range gate {
		if name == g || strings.HasPrefix(name, g+"/") {
			return true
		}
	}
	return false
}

// benchKey identifies one benchmark across documents. GOMAXPROCS is
// not part of it: a baseline recorded on a host with another CPU count
// must still be compared, not reported as removed plus new.
type benchKey struct {
	pkg  string
	name string
}

// collectMin indexes a document's results by benchmark, collapsing
// duplicate entries (a `-count=N` run) to their per-field minimum.
// The minimum is the standard benchmark noise floor: scheduler
// preemption and cache pollution only ever make a run slower, so the
// fastest of N repeats is the closest observation of the code's true
// cost, and gating on it keeps a sub-10µs benchmark from flaking the
// gate on machine noise.
func collectMin(doc *Document) map[benchKey]Result {
	by := make(map[benchKey]Result, len(doc.Benchmarks))
	for _, r := range doc.Benchmarks {
		k := benchKey{r.Package, r.Name}
		prev, ok := by[k]
		if !ok {
			by[k] = r
			continue
		}
		if r.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = r.NsPerOp
		}
		if r.BytesPerOp < prev.BytesPerOp {
			prev.BytesPerOp = r.BytesPerOp
		}
		if r.AllocsPerOp < prev.AllocsPerOp {
			prev.AllocsPerOp = r.AllocsPerOp
		}
		if len(r.Metrics) > 0 {
			merged := make(map[string]float64, len(prev.Metrics)+len(r.Metrics))
			for name, v := range prev.Metrics {
				merged[name] = v
			}
			for name, v := range r.Metrics {
				if old, ok := merged[name]; !ok || v < old {
					merged[name] = v
				}
			}
			prev.Metrics = merged
		}
		by[k] = prev
	}
	return by
}

// diffDocuments compares every benchmark of the two documents and
// classifies each row against the gate and thresholds.
func diffDocuments(oldDoc, newDoc *Document, nsThr, allocThr float64, gate []string, nsOverrides map[string]float64) *DiffReport {
	oldBy := collectMin(oldDoc)
	newBy := collectMin(newDoc)
	keys := make([]benchKey, 0, len(oldBy)+len(newBy))
	for k := range oldBy {
		keys = append(keys, k)
	}
	for k := range newBy {
		if _, dup := oldBy[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		return a.name < b.name
	})

	rep := &DiffReport{
		NsThresholdPct:     nsThr,
		AllocsThresholdPct: allocThr,
		NsOverridesPct:     nsOverrides,
		Gate:               gate,
	}
	for _, k := range keys {
		old, haveOld := oldBy[k]
		cur, haveNew := newBy[k]
		procs := cur.Procs
		if !haveNew {
			procs = old.Procs
		}
		row := DiffRow{
			Package: k.pkg, Name: k.name, Procs: procs,
			Gated:       isGated(k.name, gate),
			NsDelta:     "n/a",
			AllocsDelta: "n/a",
		}
		switch {
		case !haveNew:
			row.Status = "removed"
			row.OldNsPerOp, row.OldAllocsPerOp = old.NsPerOp, old.AllocsPerOp
			if row.Gated {
				row.Status = "regression"
				row.Reasons = append(row.Reasons, "gated benchmark missing from new document")
			}
		case !haveOld:
			row.Status = "new"
			row.NewNsPerOp, row.NewAllocsPerOp = cur.NsPerOp, cur.AllocsPerOp
		default:
			row.OldNsPerOp, row.NewNsPerOp = old.NsPerOp, cur.NsPerOp
			row.OldAllocsPerOp, row.NewAllocsPerOp = old.AllocsPerOp, cur.AllocsPerOp
			row.Status = "ok"
			if old.NsPerOp > 0 {
				pct := (cur.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
				row.NsDelta = fmt.Sprintf("%+.1f%%", pct)
				if cur.NsPerOp < old.NsPerOp {
					row.Status = "improved"
				}
				thr := nsThresholdFor(k.name, nsThr, nsOverrides)
				if row.Gated && cur.NsPerOp > old.NsPerOp*(1+thr/100) {
					row.Status = "regression"
					row.Reasons = append(row.Reasons,
						fmt.Sprintf("ns/op %+.1f%% exceeds %.0f%% threshold", pct, thr))
				}
			}
			if old.AllocsPerOp > 0 {
				pct := float64(cur.AllocsPerOp-old.AllocsPerOp) / float64(old.AllocsPerOp) * 100
				row.AllocsDelta = fmt.Sprintf("%+.1f%%", pct)
			} else if cur.AllocsPerOp > 0 {
				row.AllocsDelta = "+inf"
			} else {
				row.AllocsDelta = "+0.0%"
			}
			// new > old*(1+thr/100) covers the 0 -> k case too: any
			// allocation appearing on a previously allocation-free
			// benchmark trips the gate.
			if row.Gated && float64(cur.AllocsPerOp) > float64(old.AllocsPerOp)*(1+allocThr/100) {
				row.Status = "regression"
				row.Reasons = append(row.Reasons,
					fmt.Sprintf("allocs/op %d -> %d exceeds %.0f%% threshold",
						old.AllocsPerOp, cur.AllocsPerOp, allocThr))
			}
		}
		if row.Status == "regression" {
			rep.Regressions++
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// renderDiff writes the human-readable table.
func renderDiff(w io.Writer, rep *DiffReport) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "BENCHMARK\tOLD ns/op\tNEW ns/op\tΔns\tOLD allocs\tNEW allocs\tΔallocs\tGATED\tSTATUS")
	for _, r := range rep.Rows {
		name := r.Name
		if r.Package != "" {
			if i := strings.LastIndexByte(r.Package, '/'); i >= 0 {
				name = r.Package[i+1:] + "." + name
			} else {
				name = r.Package + "." + name
			}
		}
		gated := ""
		if r.Gated {
			gated = "yes"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%s\t%s\t%s\n",
			name, fmtNs(r.OldNsPerOp), fmtNs(r.NewNsPerOp), r.NsDelta,
			r.OldAllocsPerOp, r.NewAllocsPerOp, r.AllocsDelta,
			gated, r.Status)
		for _, reason := range r.Reasons {
			fmt.Fprintf(tw, "  !\t%s\t\t\t\t\t\t\t\n", reason)
		}
	}
	tw.Flush()
	for _, p := range rep.Pairs {
		fmt.Fprintf(w, "pair %s vs %s: %s (budget %.0f%%) %s\n",
			p.Name, p.Base, p.Delta, p.ThresholdPct, p.Status)
		if p.Reason != "" {
			fmt.Fprintf(w, "  ! %s\n", p.Reason)
		}
	}
	for _, m := range rep.MetricBounds {
		fmt.Fprintf(w, "bound %s %s: %.2f (max %.2f) %s\n",
			m.Name, m.Metric, m.Value, m.Max, m.Status)
		if m.Reason != "" {
			fmt.Fprintf(w, "  ! %s\n", m.Reason)
		}
	}
	fmt.Fprintf(w, "%d row(s), %d gated regression(s); thresholds ns/op %.0f%%, allocs/op %.0f%%\n",
		len(rep.Rows), rep.Regressions, rep.NsThresholdPct, rep.AllocsThresholdPct)
}

// fmtNs formats an ns/op figure, blank when absent.
func fmtNs(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}
