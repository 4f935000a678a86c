// POST /batch tests. The headline assertion is the byte-identity
// contract: every job's report in a batch response is byte-for-byte
// the body an equivalent single POST /project (or CLI run) produces
// at the same target and seed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
)

// batchResponse mirrors the POST /batch document for tests. Report
// stays a RawMessage: json.Unmarshal preserves the value bytes
// verbatim, so byte-identity is assertable on it.
type batchResponse struct {
	Jobs []struct {
		Index    int             `json:"index"`
		RunID    string          `json:"runId"`
		Workload string          `json:"workload"`
		Target   string          `json:"target"`
		Seed     uint64          `json:"seed"`
		Status   int             `json:"status"`
		Error    string          `json:"error"`
		Report   json.RawMessage `json:"report"`
	} `json:"jobs"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func postBatch(t *testing.T, url, body string) (*http.Response, batchResponse, []byte) {
	t.Helper()
	resp, raw := post(t, url+"/batch", body)
	var doc batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("batch response is not JSON: %v\n%.400s", err, raw)
		}
	}
	return resp, doc, raw
}

// benchJSON computes the report for a named benchmark workload on a
// target at a seed, exactly as the CLI would.
func benchJSON(t *testing.T, workload, size, tgtName string, seed uint64) []byte {
	t.Helper()
	var (
		wl  core.Workload
		err error
	)
	switch workload {
	case "CFD":
		wl, err = bench.CFD(size)
	case "HotSpot":
		wl, err = bench.HotSpot(size)
	case "SRAD":
		wl, err = bench.SRAD(size)
	default:
		t.Fatalf("unknown bench workload %q", workload)
	}
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := target.Lookup(tgtName)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), tgt.Machine(seed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(wl)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBatchByteIdenticalToSingleCalls: a mixed batch — inline
// skeleton, named workloads, seed and target overrides — returns each
// report byte-identical to the equivalent individual call.
func TestBatchByteIdenticalToSingleCalls(t *testing.T) {
	srv, s, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	jobs, err := json.Marshal([]batchJob{
		{Skeleton: src},
		{Workload: "CFD", Size: "97K", Seed: uptr(7)},
		{Workload: "SRAD", Size: "2048 x 2048", Target: "c2050-pcie3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, doc, raw := postBatch(t, srv.URL, string(jobs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %d\n%s", resp.StatusCode, raw)
	}
	if doc.Succeeded != 3 || doc.Failed != 0 || len(doc.Jobs) != 3 {
		t.Fatalf("batch summary: %d succeeded / %d failed over %d rows, want 3/0/3",
			doc.Succeeded, doc.Failed, len(doc.Jobs))
	}

	// Job 0: identical to the live /project endpoint.
	_, single := post(t, srv.URL+"/project", src)
	if !bytes.Equal(doc.Jobs[0].Report, single) {
		t.Errorf("batch skeleton report differs from POST /project:\n--- batch ---\n%.300s\n--- single ---\n%.300s",
			doc.Jobs[0].Report, single)
	}

	// Jobs 1 and 2: identical to CLI-equivalent runs.
	if want := benchJSON(t, "CFD", "97K", target.DefaultName, 7); !bytes.Equal(doc.Jobs[1].Report, want) {
		t.Error("batch CFD report differs from the CLI-equivalent run")
	}
	if want := benchJSON(t, "SRAD", "2048 x 2048", "c2050-pcie3", experiments.DefaultSeed); !bytes.Equal(doc.Jobs[2].Report, want) {
		t.Error("batch SRAD report differs from the CLI-equivalent run")
	}

	// Row metadata is filled in.
	for i, j := range doc.Jobs {
		if j.Index != i || j.RunID == "" || j.Status != http.StatusOK || j.Target == "" {
			t.Errorf("row %d metadata incomplete: %+v", i, j)
		}
	}
	if doc.Jobs[1].Seed != 7 || doc.Jobs[2].Target != "c2050-pcie3" {
		t.Errorf("overrides not reflected in rows: %+v", doc.Jobs)
	}

	// Each job landed in the flight recorder under its run ID, with
	// the exact report bytes.
	for i, j := range doc.Jobs {
		r, err := http.Get(srv.URL + "/runs/" + j.RunID)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, r)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job %d not in flight recorder: %d", i, r.StatusCode)
		}
		if !bytes.Equal(body, []byte(j.Report)) {
			t.Errorf("job %d: flight-recorded report differs from the batch row", i)
		}
	}

	// Concurrent same-key jobs went through the shared calibration
	// cache (the startup probe already warmed the default key).
	if s.pool.Hits() == 0 {
		t.Error("batch jobs bypassed the calibration cache")
	}
}

// TestBatchPartialFailure: bad jobs fail alone — the batch stays 200,
// good jobs keep their reports, bad rows carry an error and a status.
func TestBatchPartialFailure(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	jobs, err := json.Marshal([]batchJob{
		{Skeleton: src},
		{Workload: "Doom"},                            // unknown workload
		{Target: "h100-pcie5", Skeleton: src},         // unknown target
		{Skeleton: src, Workload: "CFD", Size: "97K"}, // mutually exclusive
		{},                         // neither
		{Skeleton: src, Iters: -2}, // bad iteration count
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, doc, raw := postBatch(t, srv.URL, string(jobs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %d\n%s", resp.StatusCode, raw)
	}
	if doc.Succeeded != 1 || doc.Failed != 5 {
		t.Fatalf("summary %d/%d, want 1 succeeded / 5 failed\n%s", doc.Succeeded, doc.Failed, raw)
	}
	if doc.Jobs[0].Status != http.StatusOK || len(doc.Jobs[0].Report) == 0 {
		t.Fatalf("good row lost its report: %+v", doc.Jobs[0])
	}
	for i, j := range doc.Jobs[1:] {
		if j.Status != http.StatusBadRequest || j.Error == "" {
			t.Errorf("bad row %d: status %d error %q, want 400 with a message", i+1, j.Status, j.Error)
		}
		if len(j.Report) != 0 {
			t.Errorf("bad row %d carries a report", i+1)
		}
	}
	// The unknown-target message lists the registered names, exactly
	// like /project's.
	if !strings.Contains(doc.Jobs[2].Error, target.DefaultName) {
		t.Errorf("unknown-target row does not list registered targets: %q", doc.Jobs[2].Error)
	}
}

// TestBatchRejectsMalformedRequests: request-level (not job-level)
// problems are plain 400s.
func TestBatchRejectsMalformedRequests(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})

	oversized := "[" + strings.Repeat(`{},`, maxBatchJobs) + `{}]`
	for name, body := range map[string]string{
		"not JSON":      "skeleton hotspot",
		"empty array":   "[]",
		"unknown field": `[{"skeletton": "x"}]`,
		"too many jobs": oversized,
	} {
		resp, raw := post(t, srv.URL+"/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%.200s", name, resp.StatusCode, raw)
		}
	}
}

// TestNamedWorkloadResolution: every paper benchmark resolves by
// name, Stassuij rejects a size, and unknown names error.
func TestNamedWorkloadResolution(t *testing.T) {
	for _, tc := range []struct{ name, size string }{
		{"CFD", "193K"},
		{"HotSpot", "64 x 64"},
		{"SRAD", "1024 x 1024"},
		{"Stassuij", ""},
	} {
		wl, err := namedWorkload(tc.name, tc.size)
		if err != nil {
			t.Errorf("namedWorkload(%q, %q): %v", tc.name, tc.size, err)
			continue
		}
		if wl.Name == "" || wl.Seq == nil {
			t.Errorf("namedWorkload(%q, %q) returned an empty workload", tc.name, tc.size)
		}
	}
	if _, err := namedWorkload("Stassuij", "64 x 64"); err == nil {
		t.Error("Stassuij with a size must error")
	}
	if _, err := namedWorkload("Doom", ""); err == nil {
		t.Error("unknown workload must error")
	}
}

func uptr(v uint64) *uint64 { return &v }

func readAll(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchWithFaultsCalibratesOncePerKey: on a fault-armed daemon a
// 64-job batch on one (target, backend, seed, plan) key runs one
// resilient calibration, and every job reports the same bytes as a
// single POST /project of that job.
func TestBatchWithFaultsCalibratesOncePerKey(t *testing.T) {
	srv, s, _ := startDaemon(t, daemonConfig{FaultSpec: "transient=0.02"})
	jobs := make([]batchJob, 64)
	for i := range jobs {
		jobs[i] = batchJob{Workload: "HotSpot", Size: "1024 x 1024", Backend: "piecewise", Seed: uptr(5)}
	}
	body, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	misses := s.pool.Misses()
	resp, doc, raw := postBatch(t, srv.URL, string(body))
	if resp.StatusCode != http.StatusOK || doc.Succeeded != len(jobs) {
		t.Fatalf("batch: status %d, %d of %d succeeded\n%.400s", resp.StatusCode, doc.Succeeded, len(jobs), raw)
	}
	if got := s.pool.Misses() - misses; got != 1 {
		t.Errorf("64-job batch on one key ran %d calibrations, want 1", got)
	}
	wl, err := bench.HotSpot("1024 x 1024")
	if err != nil {
		t.Fatal(err)
	}
	src, err := sklang.Format(wl)
	if err != nil {
		t.Fatal(err)
	}
	presp, single := post(t, srv.URL+"/project?backend=piecewise&seed=5", src)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("POST /project: %d\n%s", presp.StatusCode, single)
	}
	for _, j := range doc.Jobs {
		if !bytes.Equal(j.Report, single) {
			t.Fatalf("job %d report differs from the single /project body", j.Index)
		}
	}
}
