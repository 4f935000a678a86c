// Command benchjson converts `go test -bench -benchmem` output on
// stdin into a machine-readable JSON document on stdout, so benchmark
// runs can be persisted as snapshots:
//
//	go test -run='^$' -bench=. -benchmem ./... | benchjson > BENCH.json
//
// It understands the standard text format: header lines (goos, goarch,
// pkg, cpu), result lines
//
//	BenchmarkName-8   100   11873456 ns/op   1234 B/op   56 allocs/op
//
// and ignores PASS/ok/FAIL trailer lines. Exits non-zero when the
// input contains no benchmark results at all — an upstream compile
// failure would otherwise silently produce an empty document.
//
// `benchjson ab BASE.txt HEAD.txt` compares the raw output of the two
// sides of an interleaved same-host A/B and enforces the repository's
// benchmark regression gate; see ab.go.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64   `json:"allocsPerOp,omitempty"`
	// Metrics holds custom b.ReportMetric units ("overhead-pct",
	// "mean-err-C2G-%", ...) keyed by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the full output file.
type Document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "ab" {
		os.Exit(runDiff(os.Args[2:], os.Stdout, os.Stderr))
	}
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))
}

func parse(sc *bufio.Scanner) (*Document, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	doc := &Document{Benchmarks: []Result{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			r, ok, err := parseResult(line)
			if err != nil {
				return nil, err
			}
			if ok {
				r.Package = pkg
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results in input")
	}
	return doc, nil
}

// parseResult parses one "BenchmarkX-N iters value unit ..." line.
// Returns ok=false for Benchmark lines that are not results (e.g. a
// bare name echoed before its measurements on a separate line).
func parseResult(line string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || f[2] != "ns/op" && !hasUnitPairs(f[2:]) {
		return Result{}, false, nil
	}
	var r Result
	name, procs := splitProcs(f[0])
	r.Name = strings.TrimPrefix(name, "Benchmark")
	r.Procs = procs
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad iteration count in %q", line)
	}
	r.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("bad value %q in %q", f[i], line)
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "MB/s":
			// throughput is derived from ns/op; skip
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[f[i+1]] = v
		}
	}
	return r, true, nil
}

// splitProcs splits a benchmark token into its name and GOMAXPROCS
// suffix. The suffix is whatever follows the *last* hyphen, and only
// if it is all digits — benchmark and sub-benchmark names may
// themselves contain hyphens ("BenchmarkTransfer/pinned-4KB-8"), so
// cutting at the first hyphen corrupts them. A token with no numeric
// suffix is a complete name run at GOMAXPROCS=1 (go test omits the
// suffix for -cpu=1).
func splitProcs(tok string) (name string, procs int) {
	i := strings.LastIndexByte(tok, '-')
	if i < 0 || i+1 == len(tok) {
		return tok, 1
	}
	p, err := strconv.Atoi(tok[i+1:])
	if err != nil || p <= 0 {
		return tok, 1
	}
	return tok[:i], p
}

// hasUnitPairs reports whether fields look like value/unit pairs.
func hasUnitPairs(f []string) bool {
	if len(f) < 2 || len(f)%2 != 0 {
		return false
	}
	for i := 0; i+1 < len(f); i += 2 {
		if _, err := strconv.ParseFloat(f[i], 64); err != nil {
			return false
		}
	}
	return true
}
