// Dependency-aware POST /batch tests: graph validation, skip
// propagation, NDJSON streaming, calibration sharing across a DAG,
// and the fromParent selectors.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/target"
)

// dagRow mirrors one streamed or buffered DAG response row.
type dagRow struct {
	Index     int             `json:"index"`
	ID        string          `json:"id"`
	DependsOn []string        `json:"dependsOn"`
	RunID     string          `json:"runId"`
	Workload  string          `json:"workload"`
	Target    string          `json:"target"`
	Seed      uint64          `json:"seed"`
	Status    int             `json:"status"`
	Error     string          `json:"error"`
	Report    json.RawMessage `json:"report"`
}

// dagBatchResponse mirrors the buffered DAG response document.
type dagBatchResponse struct {
	Jobs      []dagRow `json:"jobs"`
	Succeeded int      `json:"succeeded"`
	Failed    int      `json:"failed"`
	Skipped   *int     `json:"skipped"`
}

func postDAGBatch(t *testing.T, url, body string) (*http.Response, dagBatchResponse, []byte) {
	t.Helper()
	resp, raw := post(t, url+"/batch", body)
	var doc dagBatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("batch response is not JSON: %v\n%.400s", err, raw)
		}
	}
	return resp, doc, raw
}

// postNDJSON posts a batch with Accept: application/x-ndjson and
// returns the response plus each decoded line.
func postNDJSON(t *testing.T, url, body string) (*http.Response, []dagRow, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []dagRow
	var summary string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 8<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var row dagRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("NDJSON line is not JSON: %v\n%.300s", err, line)
		}
		if row.RunID == "" && row.Status == 0 {
			summary = line // the trailing summary has no row fields
			continue
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, rows, summary
}

// TestBatchRejectsBadGraphs: graph-shape problems (and selector
// misuse) are request-level 400s naming the offending jobs.
func TestBatchRejectsBadGraphs(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	esc, _ := json.Marshal(src)
	sk := string(esc)

	for name, tc := range map[string]struct{ body, want string }{
		"cycle": {
			`[{"id":"a","dependsOn":["b"],"skeleton":` + sk + `},{"id":"b","dependsOn":["a"],"skeleton":` + sk + `}]`,
			"dependency cycle"},
		"self loop": {
			`[{"id":"a","dependsOn":["a"],"skeleton":` + sk + `}]`,
			"depends on itself"},
		"unknown id": {
			`[{"id":"a","dependsOn":["ghost"],"skeleton":` + sk + `}]`,
			// The body is JSON, so quotes inside the message are escaped.
			`depends on unknown id`},
		"duplicate id": {
			`[{"id":"a","skeleton":` + sk + `},{"id":"a","skeleton":` + sk + `}]`,
			`jobs 0 and 1 share id`},
		"unknown selector": {
			`[{"id":"a","skeleton":` + sk + `},{"dependsOn":["a"],"fromParent":"worstTarget","skeleton":` + sk + `}]`,
			"unknown fromParent selector"},
		"selector without deps": {
			`[{"fromParent":"bestTarget","skeleton":` + sk + `}]`,
			"without dependsOn"},
		"selector target conflict": {
			`[{"id":"a","skeleton":` + sk + `},{"dependsOn":["a"],"fromParent":"bestTarget","target":"c2050-pcie3","skeleton":` + sk + `}]`,
			"mutually exclusive"},
		"selector backend conflict": {
			`[{"id":"a","skeleton":` + sk + `},{"dependsOn":["a"],"fromParent":"bestBackend","backend":"analytic","skeleton":` + sk + `}]`,
			"mutually exclusive"},
	} {
		resp, raw := post(t, srv.URL+"/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%.300s", name, resp.StatusCode, raw)
			continue
		}
		if !strings.Contains(string(raw), tc.want) {
			t.Errorf("%s: body %.300s does not mention %q", name, raw, tc.want)
		}
	}
}

// TestBatchSkipPropagation: a failed parent's whole descendant cone is
// skipped as 424 without running, independent jobs still succeed, and
// the per-class job counters advance accordingly.
func TestBatchSkipPropagation(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	failures0, skips0 := mBatchJobFailures.Value(), mBatchJobsSkipped.Value()
	jobs, err := json.Marshal([]batchJob{
		{ID: "a", Workload: "Doom"}, // fails: unknown workload
		{ID: "b", DependsOn: []string{"a"}, Skeleton: src},
		{ID: "c", DependsOn: []string{"b"}, Skeleton: src},
		{ID: "d", Skeleton: src}, // independent root
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, doc, raw := postDAGBatch(t, srv.URL, string(jobs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %d\n%s", resp.StatusCode, raw)
	}
	if doc.Succeeded != 1 || doc.Failed != 3 {
		t.Fatalf("summary %d/%d, want 1 succeeded / 3 failed\n%s", doc.Succeeded, doc.Failed, raw)
	}
	if doc.Skipped == nil || *doc.Skipped != 2 {
		t.Fatalf("skipped count missing or wrong in %s", raw)
	}
	rows := map[string]dagRow{}
	for _, r := range doc.Jobs {
		rows[r.ID] = r
	}
	if rows["a"].Status != http.StatusBadRequest {
		t.Errorf("failed parent status %d, want 400", rows["a"].Status)
	}
	for _, id := range []string{"b", "c"} {
		r := rows[id]
		if r.Status != http.StatusFailedDependency {
			t.Errorf("skipped job %q status %d, want 424", id, r.Status)
		}
		if !strings.Contains(r.Error, "did not succeed") {
			t.Errorf("skipped job %q error %q does not name the cause", id, r.Error)
		}
		if r.RunID != "" || len(r.Report) != 0 {
			t.Errorf("skipped job %q ran anyway: %+v", id, r)
		}
	}
	if !strings.Contains(rows["b"].Error, `"a"`) || !strings.Contains(rows["c"].Error, `"b"`) {
		t.Errorf("skip errors do not blame the direct parent: b=%q c=%q", rows["b"].Error, rows["c"].Error)
	}
	if rows["d"].Status != http.StatusOK || len(rows["d"].Report) == 0 {
		t.Errorf("independent job was dragged down: %+v", rows["d"])
	}
	if got := mBatchJobFailures.Value() - failures0; got != 1 {
		t.Errorf("grophecyd_batch_job_failures_total advanced by %d, want 1", got)
	}
	if got := mBatchJobsSkipped.Value() - skips0; got != 2 {
		t.Errorf("grophecyd_batch_jobs_skipped_total advanced by %d, want 2", got)
	}
}

// TestBatchLegacyShapeUnchanged: an edge-free job array must not grow
// any DAG-era keys — no id, dependsOn, or skipped — anywhere in the
// raw response body.
func TestBatchLegacyShapeUnchanged(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	jobs, err := json.Marshal([]batchJob{{Skeleton: src}, {Workload: "Doom"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, srv.URL+"/batch", string(jobs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch: %d", resp.StatusCode)
	}
	for _, key := range []string{`"skipped"`, `"dependsOn"`, `"id"`, `"fromParent"`} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("edge-free response leaks DAG key %s:\n%.400s", key, raw)
		}
	}
	if !bytes.HasSuffix(bytes.TrimRight(raw, "\n"), []byte(`"succeeded":1,"failed":1}`)) {
		t.Errorf("edge-free summary shape changed:\n%.400s", raw)
	}
}

// TestBatchNDJSONStreaming: Accept: application/x-ndjson yields one
// row per line in the graph's deterministic emission order (parents
// before children, identical across identical posts) plus a summary.
func TestBatchNDJSONStreaming(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	jobs, err := json.Marshal([]batchJob{
		{ID: "sink", DependsOn: []string{"l", "r"}, Skeleton: src},
		{ID: "root", Skeleton: src},
		{ID: "l", DependsOn: []string{"root"}, Skeleton: src},
		{ID: "r", DependsOn: []string{"root"}, Skeleton: src},
	})
	if err != nil {
		t.Fatal(err)
	}

	var first []string
	for round := 0; round < 2; round++ {
		resp, rows, summary := postNDJSON(t, srv.URL, string(jobs))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("round %d: Content-Type %q", round, ct)
		}
		if len(rows) != 4 {
			t.Fatalf("round %d: %d rows, want 4", round, len(rows))
		}
		var ids []string
		pos := map[string]int{}
		for i, r := range rows {
			ids = append(ids, r.ID)
			pos[r.ID] = i
			if r.Status != http.StatusOK || len(r.Report) == 0 {
				t.Errorf("round %d: row %q incomplete: status %d", round, r.ID, r.Status)
			}
		}
		// Parents stream before children.
		if !(pos["root"] < pos["l"] && pos["root"] < pos["r"] && pos["l"] < pos["sink"] && pos["r"] < pos["sink"]) {
			t.Errorf("round %d: rows out of dependency order: %v", round, ids)
		}
		if summary == "" || !strings.Contains(summary, `"succeeded":4`) || !strings.Contains(summary, `"skipped":0`) {
			t.Errorf("round %d: bad summary line %q", round, summary)
		}
		if round == 0 {
			first = ids
		} else if strings.Join(first, ",") != strings.Join(ids, ",") {
			t.Errorf("row order not deterministic: %v then %v", first, ids)
		}
	}
}

// TestBatchDiamondSharesCalibration: every job of a diamond DAG pinned
// to one (target, seed) key calibrates exactly as much as a single job
// at that key — the graph shares one calibration flight, concurrent
// branches included. Run under -race in `make race`, this also
// exercises the scheduler's cross-goroutine handoffs.
func TestBatchDiamondSharesCalibration(t *testing.T) {
	srv, s, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	single, err := json.Marshal([]batchJob{
		{Skeleton: src, Target: "c2050-pcie3", Seed: uptr(99)},
	})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.pool.Misses()
	if resp, doc, raw := postDAGBatch(t, srv.URL, string(single)); resp.StatusCode != http.StatusOK || doc.Succeeded != 1 {
		t.Fatalf("single job failed: %d\n%s", resp.StatusCode, raw)
	}
	perKey := s.pool.Misses() - m0 // calibration flights one cold key costs
	if perKey == 0 {
		t.Fatal("single cold-key job caused no calibration miss; test premise broken")
	}

	diamond, err := json.Marshal([]batchJob{
		{ID: "a", Skeleton: src, Target: "c2050-pcie3", Seed: uptr(100)},
		{ID: "b", DependsOn: []string{"a"}, Skeleton: src, Target: "c2050-pcie3", Seed: uptr(100)},
		{ID: "c", DependsOn: []string{"a"}, Skeleton: src, Target: "c2050-pcie3", Seed: uptr(100)},
		{ID: "d", DependsOn: []string{"b", "c"}, Skeleton: src, Target: "c2050-pcie3", Seed: uptr(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	m1, h1 := s.pool.Misses(), s.pool.Hits()
	resp, doc, raw := postDAGBatch(t, srv.URL, string(diamond))
	if resp.StatusCode != http.StatusOK || doc.Succeeded != 4 {
		t.Fatalf("diamond failed: %d succeeded %d\n%s", resp.StatusCode, doc.Succeeded, raw)
	}
	if got := s.pool.Misses() - m1; got != perKey {
		t.Errorf("diamond cost %d calibration misses, want %d (one flight per key)", got, perKey)
	}
	if s.pool.Hits() == h1 {
		t.Error("diamond jobs after the first never hit the calibration cache")
	}
}

// TestBatchFromParentBestTarget: a child declaring fromParent
// "bestTarget" runs on whichever parent target projected the higher
// full speedup, and its report is byte-identical to a direct run at
// that winning target.
func TestBatchFromParentBestTarget(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})

	const wlName, wlSize = "HotSpot", "64 x 64"
	seed := uint64(experiments.DefaultSeed)
	speedup := func(tgtName string) float64 {
		wl, err := bench.HotSpot(wlSize)
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
		rep, err := p.Evaluate(context.Background(), wl)
		if err != nil {
			t.Fatal(err)
		}
		return rep.SpeedupFull()
	}
	want := target.DefaultName
	if speedup("c2050-pcie3") > speedup(target.DefaultName) {
		want = "c2050-pcie3"
	}

	jobs, err := json.Marshal([]batchJob{
		{ID: "base", Workload: wlName, Size: wlSize},
		{ID: "alt", Workload: wlName, Size: wlSize, Target: "c2050-pcie3"},
		{ID: "drill", DependsOn: []string{"base", "alt"}, FromParent: "bestTarget",
			Workload: wlName, Size: wlSize, Iters: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, doc, raw := postDAGBatch(t, srv.URL, string(jobs))
	if resp.StatusCode != http.StatusOK || doc.Succeeded != 3 {
		t.Fatalf("batch: %d, %d succeeded\n%s", resp.StatusCode, doc.Succeeded, raw)
	}
	var drill dagRow
	for _, r := range doc.Jobs {
		if r.ID == "drill" {
			drill = r
		}
	}
	if drill.Target != want {
		t.Errorf("drill ran on %q, want winning target %q", drill.Target, want)
	}
	if len(drill.Report) == 0 {
		t.Fatal("drill row has no report")
	}
}

// TestBatchDAGEdgesInFlightRecorder: DAG jobs record their id and
// dependsOn edges, surfaced in the GET /runs index.
func TestBatchDAGEdgesInFlightRecorder(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	jobs, err := json.Marshal([]batchJob{
		{ID: "up", Skeleton: src},
		{ID: "down", DependsOn: []string{"up"}, Skeleton: src},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, doc, raw := postDAGBatch(t, srv.URL, string(jobs))
	if resp.StatusCode != http.StatusOK || doc.Succeeded != 2 {
		t.Fatalf("batch: %d\n%s", resp.StatusCode, raw)
	}
	r, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Runs []struct {
			ID        string   `json:"id"`
			JobID     string   `json:"jobId"`
			DependsOn []string `json:"dependsOn"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(readAll(t, r), &idx); err != nil {
		t.Fatal(err)
	}
	byJob := map[string][]string{}
	for _, run := range idx.Runs {
		if run.JobID != "" {
			byJob[run.JobID] = run.DependsOn
		}
	}
	if _, ok := byJob["up"]; !ok {
		t.Error("run index lost job id \"up\"")
	}
	deps, ok := byJob["down"]
	if !ok || len(deps) != 1 || deps[0] != "up" {
		t.Errorf("run index edges for \"down\" = %v, want [up]", deps)
	}
}

// TestBatchDagDepthGauge: the depth gauge tracks the shape of the most
// recent batch.
func TestBatchDagDepthGauge(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	jobs, err := json.Marshal([]batchJob{
		{ID: "a", Skeleton: src},
		{ID: "b", DependsOn: []string{"a"}, Skeleton: src},
		{ID: "c", DependsOn: []string{"b"}, Skeleton: src},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, doc, raw := postDAGBatch(t, srv.URL, string(jobs)); resp.StatusCode != http.StatusOK || doc.Succeeded != 3 {
		t.Fatalf("batch: %d\n%s", resp.StatusCode, raw)
	}
	if got := mBatchDagDepth.Value(); got != 3 {
		t.Errorf("grophecyd_batch_dag_depth = %v, want 3", got)
	}
}
