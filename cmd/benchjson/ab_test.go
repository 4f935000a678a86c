package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs renders raw `go test -bench -benchmem` output for package
// grophecy: one result line of the named benchmark (with its -procs
// suffix) per ns/op value, each with the given allocs/op.
func runs(name string, allocs int64, ns ...float64) string {
	var b strings.Builder
	b.WriteString("pkg: grophecy\n")
	for _, v := range ns {
		fmt.Fprintf(&b, "Benchmark%s \t 100 \t %g ns/op \t 64 B/op \t %d allocs/op\n", name, v, allocs)
	}
	return b.String()
}

// parseRuns parses rendered output into a document.
func parseRuns(t *testing.T, text string) *Document {
	t.Helper()
	doc, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// scale returns v with every element multiplied by f.
func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// noisy is ten pairs' worth of base ns/op with the spread of a loaded
// host.
var noisy = []float64{1000, 1080, 960, 1150, 990, 1020, 1210, 940, 1005, 1100}

func findRow(t *testing.T, rep *abReport, name string) abRow {
	t.Helper()
	for _, r := range rep.rows {
		if r.key.name == name {
			return r
		}
	}
	t.Fatalf("no row for %q in %+v", name, rep.rows)
	return abRow{}
}

func TestDiffDocuments(t *testing.T) {
	cases := []struct {
		name       string
		base, head string
		row        string // the row the case is about
		wantFail   int
		wantDelta  string
	}{
		{
			name:      "improvement stays green",
			base:      runs("EndToEndProjection-8", 100, noisy...),
			head:      runs("EndToEndProjection-8", 90, scale(noisy, 0.8)...),
			row:       "EndToEndProjection",
			wantDelta: "-20.0%",
		},
		{
			name:      "within threshold is ok",
			base:      runs("EndToEndProjection-8", 100, noisy...),
			head:      runs("EndToEndProjection-8", 100, scale(noisy, 1.1)...),
			row:       "EndToEndProjection",
			wantDelta: "+10.0%",
		},
		{
			name:      "ns regression over threshold fails",
			base:      runs("EndToEndProjection-8", 100, noisy...),
			head:      runs("EndToEndProjection-8", 100, scale(noisy, 1.2)...),
			row:       "EndToEndProjection",
			wantFail:  1,
			wantDelta: "+20.0%",
		},
		{
			// The median absorbs one pair that a neighbour's burst
			// slowed; the minimum of N is no longer needed for that.
			name: "one slow pair is noise",
			base: runs("Enumerate-2", 16, 5000, 5000, 5000, 5000, 5000),
			head: runs("Enumerate-2", 16, 9000, 5100, 5050, 4990, 5020),
			row:  "Enumerate",
		},
		{
			name:     "allocs regression over threshold fails",
			base:     runs("Union-8", 10, 100, 100, 100),
			head:     runs("Union-8", 12, 100, 100, 100),
			row:      "Union",
			wantFail: 1,
		},
		{
			name:     "allocs appearing on a zero baseline fails",
			base:     runs("TransferPinned-8", 0, 100, 100, 100),
			head:     runs("TransferPinned-8", 1, 100, 100, 100),
			row:      "TransferPinned",
			wantFail: 1,
		},
		{
			name: "new benchmark is informational",
			base: runs("Union-8", 0, 100, 100),
			head: runs("Union-8", 0, 100, 100) + runs("Intersect-8", 0, 50, 50),
			row:  "Intersect",
		},
		{
			name:     "removed gated benchmark fails",
			base:     runs("Union-8", 0, 100, 100) + runs("Intersect-8", 0, 50, 50),
			head:     runs("Union-8", 0, 100, 100),
			row:      "Intersect",
			wantFail: 1,
		},
		{
			name:      "zero-ns baseline is n/a, not a division crash",
			base:      runs("Enumerate-8", 0, 0, 0),
			head:      runs("Enumerate-8", 0, 100, 100),
			row:       "Enumerate",
			wantDelta: "n/a",
		},
		{
			// One side run at GOMAXPROCS 1 still pairs with one run on
			// a 2-CPU host, not read as removed + new.
			name:      "rows match across GOMAXPROCS",
			base:      runs("EndToEndProjection", 100, noisy...),
			head:      runs("EndToEndProjection-2", 100, scale(noisy, 1.2)...),
			row:       "EndToEndProjection",
			wantFail:  1,
			wantDelta: "+20.0%",
		},
		{
			name:     "gated sub-benchmark is covered",
			base:     runs("Union/large-overlap-8", 0, 100, 100),
			head:     runs("Union/large-overlap-8", 0, 200, 200),
			row:      "Union/large-overlap",
			wantFail: 1,
		},
		{
			// Only the trailing all-digits suffix is GOMAXPROCS:
			// "Transfer/pinned-4KB-8" and "Transfer/pinned-4KB-2" are
			// one benchmark, and "-4KB" is no CPU count.
			name:      "hyphenated sub-benchmark names pair",
			base:      runs("Transfer/pinned-4KB-8", 0, 100, 100) + runs("Transfer/pinned-64MB", 0, 900, 900),
			head:      runs("Transfer/pinned-4KB-2", 0, 120, 120) + runs("Transfer/pinned-64MB", 0, 900, 900),
			row:       "Transfer/pinned-4KB",
			wantFail:  1,
			wantDelta: "+20.0%",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := diff(parseRuns(t, c.base), parseRuns(t, c.head), nil)
			if len(rep.fails) != c.wantFail {
				t.Fatalf("failures %q, want %d\nrows: %+v", rep.fails, c.wantFail, rep.rows)
			}
			row := findRow(t, rep, c.row)
			if c.wantFail > 0 && !strings.HasPrefix(rep.fails[0], row.key.String()+": ") {
				t.Fatalf("failure %q does not name %s", rep.fails[0], row.key)
			}
			if c.wantDelta != "" && row.delta() != c.wantDelta {
				t.Fatalf("delta = %q, want %q", row.delta(), c.wantDelta)
			}
		})
	}
}

func TestDiffCountsPairsWon(t *testing.T) {
	// Pair i is the i-th run of each side: head's flat 150 loses pair
	// 1 and wins pairs 2 and 3.
	rep := diff(parseRuns(t, runs("Union-8", 0, 100, 200, 300)),
		parseRuns(t, runs("Union-8", 0, 150, 150, 150)), nil)
	row := findRow(t, rep, "Union")
	if row.won != 2 || row.nBase != 3 || row.nHead != 3 {
		t.Fatalf("won %d of %d/%d runs, want 2 of 3/3", row.won, row.nBase, row.nHead)
	}
	if row.base != (quartiles{150, 200, 250}) || row.head.med != 150 {
		t.Fatalf("quartiles base %+v head %+v", row.base, row.head)
	}
}

func TestDiffRegressionCarriesReason(t *testing.T) {
	rep := diff(parseRuns(t, runs("Enumerate-8", 4, 1000, 1000)),
		parseRuns(t, runs("Enumerate-8", 8, 2000, 2000)), nil)
	if len(rep.fails) != 2 || !strings.Contains(rep.fails[0], "ns/op") || !strings.Contains(rep.fails[1], "allocs/op") {
		t.Fatalf("want both an ns and an allocs reason, got %q", rep.fails)
	}
}

// writeRuns writes rendered output to a file in dir and returns its
// path.
func writeRuns(t *testing.T, dir, name, text string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunDiffGateRejectsSlowedBenchmark is the gate's own end-to-end
// test: a benchmark 20% slower in every pair exits 1 and is named.
func TestRunDiffGateRejectsSlowedBenchmark(t *testing.T) {
	dir := t.TempDir()
	basePath := writeRuns(t, dir, "base.txt",
		runs("Union-2", 0, noisy...)+runs("Intersect-2", 0, noisy...))
	headPath := writeRuns(t, dir, "head.txt",
		runs("Union-2", 0, scale(noisy, 1.2)...)+runs("Intersect-2", 0, noisy...))
	var out, errb bytes.Buffer
	if code := runDiff([]string{basePath, headPath}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "FAIL grophecy Union: median ns/op +20.0%") {
		t.Fatalf("summary does not name the slowed benchmark:\n%s", out.String())
	}
	if strings.Contains(out.String(), "FAIL grophecy Intersect") {
		t.Fatalf("unchanged benchmark failed:\n%s", out.String())
	}
}

func TestRunDiffCleanComparisonExitsZero(t *testing.T) {
	dir := t.TempDir()
	basePath := writeRuns(t, dir, "base.txt", runs("EndToEndProjection-2", 500, noisy...))
	headPath := writeRuns(t, dir, "head.txt", runs("EndToEndProjection-2", 450, scale(noisy, 0.9)...))
	var out, errb bytes.Buffer
	if code := runDiff([]string{basePath, headPath}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "10/10") {
		t.Fatalf("summary does not report 10/10 pairs won:\n%s", out.String())
	}
}

func TestRunDiffMalformedInputs(t *testing.T) {
	dir := t.TempDir()
	good := writeRuns(t, dir, "good.txt", runs("Union-2", 0, 100))
	badValue := writeRuns(t, dir, "bad.txt", "pkg: grophecy\nBenchmarkUnion-2 \t 1x0 \t 100 ns/op\n")
	empty := writeRuns(t, dir, "empty.txt", "PASS\nok  \tgrophecy\t1.0s\n")
	cases := []struct {
		name string
		args []string
	}{
		{"missing file", []string{good, filepath.Join(dir, "nope.txt")}},
		{"bad value", []string{badValue, good}},
		{"empty document", []string{good, empty}},
		{"wrong arg count", []string{good}},
		{"bad flag", []string{"-ns-threshold=20", good, good}},
		{"bad bound", []string{"-metric-max=TelemetryOverhead", good, good}},
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

// overhead renders TelemetryOverhead runs reporting the given
// overhead-pct values.
func overhead(pct ...float64) string {
	var b strings.Builder
	b.WriteString("pkg: grophecy\n")
	for _, v := range pct {
		fmt.Fprintf(&b, "BenchmarkTelemetryOverhead-2 \t 10 \t 1000 ns/op \t %g overhead-pct \t 0 B/op \t 0 allocs/op\n", v)
	}
	return b.String()
}

func TestApplyMetricMaxBound(t *testing.T) {
	rules, err := splitMetricMax(defaultMetricMax)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, base, head, wantStatus string) {
		t.Helper()
		rep := diff(parseRuns(t, base), parseRuns(t, head), rules)
		if len(rep.bounds) != 1 || !strings.HasSuffix(rep.bounds[0], " "+wantStatus) {
			t.Fatalf("%s: bounds %q, want status %q", what, rep.bounds, wantStatus)
		}
		if failed := len(rep.fails) > 0; failed != (wantStatus == "regression") {
			t.Fatalf("%s: failures %q with status %q", what, rep.fails, wantStatus)
		}
	}
	check("within bound", overhead(1, 1, 1), overhead(3.2, 7.9, 4.0), "ok")
	check("over bound", overhead(1), overhead(6, 6, 6), "regression")
	// The median, not the fastest run, is held to the bound.
	check("median over bound", overhead(1), overhead(4, 6, 7), "regression")
	// Present but silent on the metric: the bound is unverifiable.
	check("missing metric", overhead(1), runs("TelemetryOverhead-2", 0, 1000), "regression")
	// Ran on base but not on head: deleting the benchmark must not
	// disable the gate.
	check("removed", overhead(1), runs("Other-2", 0, 1), "regression")
	// On neither side: an unrelated selection skips the bound.
	check("absent", runs("Other-2", 0, 1), runs("Other-2", 0, 1), "skipped")
}

func TestRunDiffMetricMaxFlag(t *testing.T) {
	dir := t.TempDir()
	basePath := writeRuns(t, dir, "base.txt", overhead(2, 2, 2))
	headPath := writeRuns(t, dir, "head.txt", overhead(4.4, 4.4, 4.4))
	var out, errb bytes.Buffer
	// 4.4 is inside the default 5-point bound.
	if code := runDiff([]string{basePath, headPath}, &out, &errb); code != 0 {
		t.Fatalf("default bound: exit = %d, want 0\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "bound TelemetryOverhead overhead-pct: 4.40 (max 5.00) ok") {
		t.Fatalf("summary missing bound line:\n%s", out.String())
	}
	// A tighter explicit bound fails it.
	out.Reset()
	if code := runDiff([]string{"-metric-max=TelemetryOverhead:overhead-pct=4", basePath, headPath}, &out, &errb); code != 1 {
		t.Fatalf("tight bound: exit = %d, want 1\nstdout: %s", code, out.String())
	}
}
