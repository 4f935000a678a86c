package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkDoc builds a document with one package for brevity.
func mkDoc(results ...Result) *Document {
	for i := range results {
		if results[i].Package == "" {
			results[i].Package = "grophecy"
		}
		if results[i].Procs == 0 {
			results[i].Procs = 8
		}
	}
	return &Document{Goos: "linux", Goarch: "amd64", Benchmarks: results}
}

func findRow(t *testing.T, rep *DiffReport, name string) DiffRow {
	t.Helper()
	for _, r := range rep.Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no row for %q in %+v", name, rep.Rows)
	return DiffRow{}
}

func TestDiffDocuments(t *testing.T) {
	gate := splitGate(defaultGate)
	cases := []struct {
		name        string
		old, new    *Document
		wantStatus  string
		wantRegr    int
		wantNsDelta string
		wantProcs   int
	}{
		{
			name:        "improvement stays green",
			old:         mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1000, AllocsPerOp: 100}),
			new:         mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 800, AllocsPerOp: 90}),
			wantStatus:  "improved",
			wantRegr:    0,
			wantNsDelta: "-20.0%",
		},
		{
			name:       "within threshold is ok",
			old:        mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1000, AllocsPerOp: 100}),
			new:        mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1100, AllocsPerOp: 100}),
			wantStatus: "ok",
			wantRegr:   0,
		},
		{
			name:       "ns regression over threshold fails",
			old:        mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1000, AllocsPerOp: 100}),
			new:        mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1200, AllocsPerOp: 100}),
			wantStatus: "regression",
			wantRegr:   1,
		},
		{
			name:       "allocs regression over threshold fails",
			old:        mkDoc(Result{Name: "Union", NsPerOp: 100, AllocsPerOp: 10}),
			new:        mkDoc(Result{Name: "Union", NsPerOp: 100, AllocsPerOp: 12}),
			wantStatus: "regression",
			wantRegr:   1,
		},
		{
			name:       "allocs appearing on a zero baseline fails",
			old:        mkDoc(Result{Name: "TransferPinned", NsPerOp: 100, AllocsPerOp: 0}),
			new:        mkDoc(Result{Name: "TransferPinned", NsPerOp: 100, AllocsPerOp: 1}),
			wantStatus: "regression",
			wantRegr:   1,
		},
		{
			name: "ungated regression is informational",
			old:  mkDoc(Result{Name: "SomethingElse", NsPerOp: 1000}),
			new:  mkDoc(Result{Name: "SomethingElse", NsPerOp: 5000}),
			// Not in the gate list: never a regression.
			wantStatus: "ok",
			wantRegr:   0,
		},
		{
			name: "new benchmark is informational",
			old:  mkDoc(Result{Name: "Union", NsPerOp: 100}),
			new: mkDoc(Result{Name: "Union", NsPerOp: 100},
				Result{Name: "Intersect", NsPerOp: 50}),
			wantStatus: "new",
			wantRegr:   0,
		},
		{
			name: "removed gated benchmark fails",
			old: mkDoc(Result{Name: "Union", NsPerOp: 100},
				Result{Name: "Intersect", NsPerOp: 50}),
			new:        mkDoc(Result{Name: "Union", NsPerOp: 100}),
			wantStatus: "regression",
			wantRegr:   1,
		},
		{
			name:        "zero-ns baseline is n/a, not a division crash",
			old:         mkDoc(Result{Name: "Enumerate", NsPerOp: 0, AllocsPerOp: 0}),
			new:         mkDoc(Result{Name: "Enumerate", NsPerOp: 100, AllocsPerOp: 0}),
			wantStatus:  "ok",
			wantRegr:    0,
			wantNsDelta: "n/a",
		},
		{
			// A baseline recorded at GOMAXPROCS 1 must still be compared
			// against a run on a 2-CPU host, not read as removed + new.
			name:       "rows match across GOMAXPROCS",
			old:        mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1000, AllocsPerOp: 100, Procs: 1}),
			new:        mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1200, AllocsPerOp: 100, Procs: 2}),
			wantStatus: "regression",
			wantRegr:   1,
			wantProcs:  2,
		},
		{
			name:       "gated sub-benchmark is covered",
			old:        mkDoc(Result{Name: "Union/large-overlap", NsPerOp: 100}),
			new:        mkDoc(Result{Name: "Union/large-overlap", NsPerOp: 200}),
			wantStatus: "regression",
			wantRegr:   1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := diffDocuments(c.old, c.new, 15, 10, gate, nil)
			if rep.Regressions != c.wantRegr {
				t.Fatalf("regressions = %d, want %d\nrows: %+v", rep.Regressions, c.wantRegr, rep.Rows)
			}
			// The interesting row is the one whose status we asserted;
			// find it by scanning for the expected status.
			var hit bool
			for _, r := range rep.Rows {
				if r.Status == c.wantStatus {
					hit = true
					if c.wantNsDelta != "" && r.NsDelta != c.wantNsDelta {
						t.Fatalf("nsDelta = %q, want %q", r.NsDelta, c.wantNsDelta)
					}
					if c.wantProcs != 0 && r.Procs != c.wantProcs {
						t.Fatalf("procs = %d, want the new document's %d", r.Procs, c.wantProcs)
					}
				}
			}
			if !hit {
				t.Fatalf("no row with status %q in %+v", c.wantStatus, rep.Rows)
			}
		})
	}
}

func TestDiffCollapsesRepeatedRunsToMinimum(t *testing.T) {
	// A -count=3 document carries three results per benchmark; the
	// diff gates on the per-field minimum (the noise floor), so one
	// noisy repeat must not fail an otherwise healthy benchmark.
	old := mkDoc(Result{Name: "Enumerate", NsPerOp: 5000, AllocsPerOp: 16})
	new := mkDoc(
		Result{Name: "Enumerate", NsPerOp: 6200, AllocsPerOp: 16}, // noisy outlier, +24%
		Result{Name: "Enumerate", NsPerOp: 5100, AllocsPerOp: 16},
		Result{Name: "Enumerate", NsPerOp: 5050, AllocsPerOp: 16},
	)
	rep := diffDocuments(old, new, 15, 10, splitGate(defaultGate), nil)
	if rep.Regressions != 0 {
		t.Fatalf("min-of-N should absorb the outlier, got %+v", rep.Rows)
	}
	row := findRow(t, rep, "Enumerate")
	if row.NewNsPerOp != 5050 {
		t.Fatalf("newNsPerOp = %v, want the minimum 5050", row.NewNsPerOp)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("repeats must collapse to one row, got %d", len(rep.Rows))
	}

	// A real regression survives the minimum: all repeats slow.
	allSlow := mkDoc(
		Result{Name: "Enumerate", NsPerOp: 6200, AllocsPerOp: 16},
		Result{Name: "Enumerate", NsPerOp: 6100, AllocsPerOp: 16},
		Result{Name: "Enumerate", NsPerOp: 6300, AllocsPerOp: 16},
	)
	if rep := diffDocuments(old, allSlow, 15, 10, splitGate(defaultGate), nil); rep.Regressions != 1 {
		t.Fatalf("uniformly slow repeats must still regress, got %+v", rep.Rows)
	}
}

func TestDiffRegressionCarriesReason(t *testing.T) {
	rep := diffDocuments(
		mkDoc(Result{Name: "Enumerate", NsPerOp: 1000, AllocsPerOp: 4}),
		mkDoc(Result{Name: "Enumerate", NsPerOp: 2000, AllocsPerOp: 8}),
		15, 10, splitGate(defaultGate), nil)
	row := findRow(t, rep, "Enumerate")
	if row.Status != "regression" || len(row.Reasons) != 2 {
		t.Fatalf("want a regression with both an ns and an allocs reason, got %+v", row)
	}
}

// writeDoc marshals a document to a temp file and returns its path.
func writeDoc(t *testing.T, dir, name string, doc *Document) string {
	t.Helper()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDiffGateRejectsSlowedBenchmark is the gate's own end-to-end
// test: a deliberately slowed gated benchmark (3x the baseline ns/op)
// must be rejected with exit code 1.
func TestRunDiffGateRejectsSlowedBenchmark(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json",
		mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1_000_000, AllocsPerOp: 500}))
	newPath := writeDoc(t, dir, "new.json",
		mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 3_000_000, AllocsPerOp: 500}))
	var out, errb bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("regression")) {
		t.Fatalf("table does not mention the regression:\n%s", out.String())
	}
}

func TestRunDiffCleanComparisonExitsZero(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json",
		mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1000, AllocsPerOp: 500}))
	newPath := writeDoc(t, dir, "new.json",
		mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 900, AllocsPerOp: 450}))
	var out, errb bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errb.String())
	}
}

func TestRunDiffJSONOutput(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", mkDoc(Result{Name: "Union", NsPerOp: 100, AllocsPerOp: 1}))
	newPath := writeDoc(t, dir, "new.json", mkDoc(Result{Name: "Union", NsPerOp: 300, AllocsPerOp: 1}))
	var out, errb bytes.Buffer
	if code := runDiff([]string{"-json", oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var rep DiffReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Regressions != 1 || len(rep.Rows) != 1 || rep.Rows[0].Status != "regression" {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestRunDiffMalformedInputs(t *testing.T) {
	dir := t.TempDir()
	good := writeDoc(t, dir, "good.json", mkDoc(Result{Name: "Union", NsPerOp: 100}))
	notJSON := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(notJSON, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"missing file", []string{good, filepath.Join(dir, "nope.json")}},
		{"invalid JSON", []string{notJSON, good}},
		{"empty document", []string{good, empty}},
		{"wrong arg count", []string{good}},
		{"bad flag", []string{"-ns-threshold=abc", good, good}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := runDiff(c.args, &out, &errb); code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr: %s", code, errb.String())
			}
		})
	}
}

func TestDiffNsOverrideTightensOneBenchmark(t *testing.T) {
	overrides, err := splitOverrides("EndToEndProjection=5")
	if err != nil {
		t.Fatal(err)
	}
	// +10% is inside the global 15% threshold but outside the 5%
	// override for EndToEndProjection.
	old := mkDoc(
		Result{Name: "EndToEndProjection", NsPerOp: 1000, AllocsPerOp: 100},
		Result{Name: "Enumerate", NsPerOp: 1000, AllocsPerOp: 100})
	new := mkDoc(
		Result{Name: "EndToEndProjection", NsPerOp: 1100, AllocsPerOp: 100},
		Result{Name: "Enumerate", NsPerOp: 1100, AllocsPerOp: 100})
	rep := diffDocuments(old, new, 15, 10, splitGate(defaultGate), overrides)
	if rep.Regressions != 1 {
		t.Fatalf("regressions = %d, want exactly the overridden benchmark\nrows: %+v",
			rep.Regressions, rep.Rows)
	}
	if row := findRow(t, rep, "EndToEndProjection"); row.Status != "regression" {
		t.Fatalf("EndToEndProjection = %+v, want a 5%%-override regression", row)
	}
	if row := findRow(t, rep, "Enumerate"); row.Status != "ok" {
		t.Fatalf("Enumerate = %+v, want ok under the global threshold", row)
	}
}

func TestSplitOverrides(t *testing.T) {
	got, err := splitOverrides("A=5, B=12.5 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["A"] != 5 || got["B"] != 12.5 {
		t.Fatalf("splitOverrides = %v", got)
	}
	for _, bad := range []string{"A", "A=", "A=-3", "A=x"} {
		if _, err := splitOverrides(bad); err == nil {
			t.Fatalf("splitOverrides(%q) accepted bad input", bad)
		}
	}
}

func TestSplitPairs(t *testing.T) {
	got, err := splitPairs("A=B:5, C=D:12.5 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []pairRule{{"A", "B", 5}, {"C", "D", 12.5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("splitPairs = %v, want %v", got, want)
	}
	for _, bad := range []string{"A", "A=B", "A=:5", "A=B:", "A=B:-3", "A=B:x"} {
		if _, err := splitPairs(bad); err == nil {
			t.Fatalf("splitPairs(%q) accepted bad input", bad)
		}
	}
}

func TestApplyPairsWithinBudget(t *testing.T) {
	rep := &DiffReport{}
	// min-of-count collapse applies before the comparison: the second
	// Telemetry sample is the floor, 3% over the base — inside 5%.
	doc := mkDoc(
		Result{Name: "EndToEndProjection", NsPerOp: 1000},
		Result{Name: "EndToEndProjectionTelemetry", NsPerOp: 1200},
		Result{Name: "EndToEndProjectionTelemetry", NsPerOp: 1030})
	pairs, err := splitPairs("EndToEndProjectionTelemetry=EndToEndProjection:5")
	if err != nil {
		t.Fatal(err)
	}
	applyPairs(rep, doc, pairs)
	if rep.Regressions != 0 || len(rep.Pairs) != 1 || rep.Pairs[0].Status != "ok" {
		t.Fatalf("pairs = %+v, regressions = %d; want ok, 0", rep.Pairs, rep.Regressions)
	}
}

func TestApplyPairsOverBudget(t *testing.T) {
	rep := &DiffReport{}
	doc := mkDoc(
		Result{Name: "EndToEndProjection", NsPerOp: 1000},
		Result{Name: "EndToEndProjectionTelemetry", NsPerOp: 1100})
	pairs, _ := splitPairs("EndToEndProjectionTelemetry=EndToEndProjection:5")
	applyPairs(rep, doc, pairs)
	if rep.Regressions != 1 || rep.Pairs[0].Status != "regression" {
		t.Fatalf("pairs = %+v, regressions = %d; want a +10%% budget regression", rep.Pairs, rep.Regressions)
	}
}

func TestApplyPairsMissingSides(t *testing.T) {
	pairs, _ := splitPairs("EndToEndProjectionTelemetry=EndToEndProjection:5")
	// Name absent: skipped, not a regression (the gate list owns
	// removal detection).
	rep := &DiffReport{}
	applyPairs(rep, mkDoc(Result{Name: "EndToEndProjection", NsPerOp: 1000}), pairs)
	if rep.Regressions != 0 || rep.Pairs[0].Status != "skipped" {
		t.Fatalf("name absent: pairs = %+v, regressions = %d", rep.Pairs, rep.Regressions)
	}
	// Base absent: the budget cannot be verified — regression.
	rep = &DiffReport{}
	applyPairs(rep, mkDoc(Result{Name: "EndToEndProjectionTelemetry", NsPerOp: 1000}), pairs)
	if rep.Regressions != 1 || rep.Pairs[0].Status != "regression" {
		t.Fatalf("base absent: pairs = %+v, regressions = %d", rep.Pairs, rep.Regressions)
	}
}

func TestRunDiffPairFlag(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", mkDoc(Result{Name: "A", NsPerOp: 1000}))
	newPath := writeDoc(t, dir, "new.json", mkDoc(
		Result{Name: "A", NsPerOp: 1000},
		Result{Name: "B", NsPerOp: 1080}))
	var out, errb bytes.Buffer
	// B is 8% over A: inside a 10% pair budget...
	if code := runDiff([]string{"-pair=B=A:10", oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("10%% budget: exit = %d, want 0\nstderr: %s", code, errb.String())
	}
	// ...and outside a 5% one.
	out.Reset()
	if code := runDiff([]string{"-pair=B=A:5", oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("5%% budget: exit = %d, want 1\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "pair B vs A") {
		t.Fatalf("table missing pair line:\n%s", out.String())
	}
	// A malformed pair is a usage error.
	if code := runDiff([]string{"-pair=B=A", oldPath, newPath}, &out, &errb); code != 2 {
		t.Fatalf("malformed pair: exit = %d, want 2", code)
	}
}

func TestSplitMetricMax(t *testing.T) {
	got, err := splitMetricMax("A:m=5, B:overhead-pct=12.5 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []metricRule{{"A", "m", 5}, {"B", "overhead-pct", 12.5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("splitMetricMax = %v, want %v", got, want)
	}
	for _, bad := range []string{"A", "A=5", "A:=5", ":m=5", "A:m=", "A:m=x"} {
		if _, err := splitMetricMax(bad); err == nil {
			t.Fatalf("splitMetricMax(%q) accepted bad input", bad)
		}
	}
}

func TestApplyMetricMaxBound(t *testing.T) {
	rules, err := splitMetricMax(defaultMetricMax)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v float64) *Document {
		return mkDoc(Result{Name: "TelemetryOverhead", NsPerOp: 1000,
			Metrics: map[string]float64{"overhead-pct": v}})
	}
	// Inside the bound; min-of-count collapse applies first.
	rep := &DiffReport{}
	doc := mk(3.2)
	doc.Benchmarks = append(doc.Benchmarks, mk(7.9).Benchmarks[0])
	applyMetricMax(rep, mk(1), doc, rules)
	if rep.Regressions != 0 || len(rep.MetricBounds) != 1 || rep.MetricBounds[0].Status != "ok" {
		t.Fatalf("within bound: %+v, regressions = %d", rep.MetricBounds, rep.Regressions)
	}
	// Over the bound.
	rep = &DiffReport{}
	applyMetricMax(rep, mk(1), mk(7.9), rules)
	if rep.Regressions != 1 || rep.MetricBounds[0].Status != "regression" {
		t.Fatalf("over bound: %+v, regressions = %d", rep.MetricBounds, rep.Regressions)
	}
	// Present but silent on the metric: the bound is unverifiable.
	rep = &DiffReport{}
	applyMetricMax(rep, mk(1),
		mkDoc(Result{Name: "TelemetryOverhead", NsPerOp: 1000}), rules)
	if rep.Regressions != 1 || rep.MetricBounds[0].Status != "regression" {
		t.Fatalf("missing metric: %+v, regressions = %d", rep.MetricBounds, rep.Regressions)
	}
	// Removed since the old document: deleting the benchmark must not
	// disable the gate.
	rep = &DiffReport{}
	applyMetricMax(rep, mk(1), mkDoc(Result{Name: "Other", NsPerOp: 1}), rules)
	if rep.Regressions != 1 || rep.MetricBounds[0].Status != "regression" {
		t.Fatalf("removed: %+v, regressions = %d", rep.MetricBounds, rep.Regressions)
	}
	// In neither document: unrelated snapshots skip the bound.
	rep = &DiffReport{}
	applyMetricMax(rep, mkDoc(Result{Name: "Other", NsPerOp: 1}),
		mkDoc(Result{Name: "Other", NsPerOp: 1}), rules)
	if rep.Regressions != 0 || rep.MetricBounds[0].Status != "skipped" {
		t.Fatalf("absent: %+v, regressions = %d", rep.MetricBounds, rep.Regressions)
	}
}

func TestRunDiffMetricMaxFlag(t *testing.T) {
	dir := t.TempDir()
	mk := func(v float64) *Document {
		return mkDoc(Result{Name: "TelemetryOverhead", NsPerOp: 1000,
			Metrics: map[string]float64{"overhead-pct": v}})
	}
	oldPath := writeDoc(t, dir, "old.json", mk(2))
	newPath := writeDoc(t, dir, "new.json", mk(4.4))
	var out, errb bytes.Buffer
	// 4.4 is inside the default 5-point bound.
	if code := runDiff([]string{oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("default bound: exit = %d, want 0\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "bound TelemetryOverhead overhead-pct") {
		t.Fatalf("table missing bound line:\n%s", out.String())
	}
	// A tighter explicit bound fails it.
	out.Reset()
	if code := runDiff([]string{"-metric-max=TelemetryOverhead:overhead-pct=4", oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("tight bound: exit = %d, want 1\nstdout: %s", code, out.String())
	}
	// A malformed bound is a usage error.
	if code := runDiff([]string{"-metric-max=TelemetryOverhead", oldPath, newPath}, &out, &errb); code != 2 {
		t.Fatalf("malformed bound: exit = %d, want 2", code)
	}
}

func TestRunDiffNsOverrideFlag(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", mkDoc(Result{Name: "MyBench", NsPerOp: 1000}))
	newPath := writeDoc(t, dir, "new.json", mkDoc(Result{Name: "MyBench", NsPerOp: 1100}))
	var out, errb bytes.Buffer
	// Gated at the default 15%: +10% passes.
	if code := runDiff([]string{"-gate=MyBench", oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("no override: exit = %d, want 0\nstderr: %s", code, errb.String())
	}
	// An explicit 5% override on the same run fails it.
	if code := runDiff([]string{"-gate=MyBench", "-ns-override=MyBench=5", oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("override: exit = %d, want 1\nstdout: %s", code, out.String())
	}
	// A malformed override is a usage error.
	if code := runDiff([]string{"-ns-override=MyBench", oldPath, newPath}, &out, &errb); code != 2 {
		t.Fatalf("malformed override: exit = %d, want 2", code)
	}
}

func TestRunDiffCustomGateAndThresholds(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeDoc(t, dir, "old.json", mkDoc(Result{Name: "MyBench", NsPerOp: 100}))
	newPath := writeDoc(t, dir, "new.json", mkDoc(Result{Name: "MyBench", NsPerOp: 140}))
	var out, errb bytes.Buffer
	// Default gate ignores MyBench entirely.
	if code := runDiff([]string{oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("default gate: exit = %d, want 0", code)
	}
	// Gating it with a generous threshold still passes...
	if code := runDiff([]string{"-gate=MyBench", "-ns-threshold=50", oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("generous threshold: exit = %d, want 0", code)
	}
	// ...and a tight one fails.
	if code := runDiff([]string{"-gate=MyBench", "-ns-threshold=10", oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("tight threshold: exit = %d, want 1", code)
	}
}
