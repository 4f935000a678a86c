// Request-tracing end-to-end tests: trace-context propagation,
// per-stage wall spans, the canonical wide event, exemplars, SLO
// surfacing, and the OTLP file sink — all through the wired handler.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"grophecy/internal/experiments"
	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/trace"
)

const inboundTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// otlpSpans flattens an OTLP/JSON document into (traceID, name) rows.
func otlpSpans(t *testing.T, data []byte) (traceID string, names []string) {
	t.Helper()
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
					Name    string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("walltrace is not OTLP/JSON: %v", err)
	}
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				traceID = sp.TraceID
				names = append(names, sp.Name)
			}
		}
	}
	return traceID, names
}

// TestTraceparentPropagation is the tentpole end-to-end check: an
// inbound W3C traceparent is adopted (same trace ID on the echoed
// header and the stored wall trace), and the trace carries the
// admission wait, the calibration spans, and all five engine stages.
func TestTraceparentPropagation(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	req, err := http.NewRequest("POST", srv.URL+"/project", strings.NewReader(hotspotSource(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.TraceparentHeader, inboundTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	echo := resp.Header.Get(trace.TraceparentHeader)
	sc, err := trace.ParseTraceparent(echo)
	if err != nil {
		t.Fatalf("echoed traceparent %q: %v", echo, err)
	}
	wantTrace := "4bf92f3577b34da6a3ce929d0e0e4736"
	if sc.TraceID.String() != wantTrace {
		t.Fatalf("echoed trace ID %s, want the inbound %s", sc.TraceID, wantTrace)
	}
	if sc.SpanID.String() == "00f067aa0ba902b7" {
		t.Fatal("echo returned the caller's span ID instead of the daemon's server span")
	}

	runID := resp.Header.Get("X-Run-Id")
	if runID == "" {
		t.Fatal("no X-Run-Id response header")
	}
	wtResp, err := http.Get(srv.URL + "/runs/" + runID + "/walltrace")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, wtResp)
	if wtResp.StatusCode != http.StatusOK {
		t.Fatalf("walltrace status %d: %s", wtResp.StatusCode, body)
	}
	traceID, names := otlpSpans(t, body)
	if traceID != wantTrace {
		t.Fatalf("walltrace trace ID %s, want %s", traceID, wantTrace)
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{"queue.wait",
		"stage.datausage", "stage.kernels", "stage.transfers", "stage.cpu", "stage.assemble"} {
		if !have[want] {
			t.Errorf("walltrace missing span %q (have %v)", want, names)
		}
	}
	if !have["cal.compute"] && !have["cal.cache_hit"] && !have["cal.wait"] {
		t.Errorf("walltrace has no calibration span (have %v)", names)
	}
}

// TestWideEvent: every request emits exactly one canonical "request"
// log record carrying the trace ID, tenant, outcome, the request's own
// cache counts, and per-stage milliseconds — and nothing else.
func TestWideEvent(t *testing.T) {
	srv, _, logs := startDaemon(t, daemonConfig{})
	req, err := http.NewRequest("POST", srv.URL+"/project", strings.NewReader(hotspotSource(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "tenant-secret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The wide event is logged after the handler returns; the body's
	// last chunk is written after that, so reading to EOF orders the
	// log scan after the event.
	readAll(t, resp)

	var wide map[string]any
	count := 0
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("log line is not JSON: %v", err)
		}
		if doc["msg"] == "request" {
			wide = doc
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d wide events, want exactly 1", count)
	}
	want := []string{"time", "level", "msg", obs.FieldPhase,
		"trace_id", "tenant", "method", "path", "queue_depth",
		"run", "workload", "target", "backend", "seed",
		"speedup_full", "degradations",
		"status", "duration_ms", "cache_hits", "cache_misses",
		"ms.grophecyd", "ms.queue.wait", "ms.cal.cache_hit",
		"ms.stage.datausage", "ms.stage.kernels", "ms.stage.transfers", "ms.stage.cpu", "ms.stage.assemble"}
	for _, key := range want {
		if _, ok := wide[key]; !ok {
			t.Errorf("wide event missing %q: %v", key, wide)
		}
	}
	if len(wide) != len(want) {
		t.Errorf("wide event has %d keys, want exactly %d: %v", len(wide), len(want), wide)
	}
	if wide["cache_hits"] != float64(1) || wide["cache_misses"] != float64(0) {
		t.Errorf("warm request cache counts = %v hits, %v misses; want 1, 0", wide["cache_hits"], wide["cache_misses"])
	}
	if wide["tenant"] == "anon" || wide["tenant"] == "tenant-secret" {
		t.Errorf("tenant %q: want a fingerprint, not anon or the raw key", wide["tenant"])
	}
	if wide["status"] != float64(http.StatusOK) {
		t.Errorf("wide event status %v", wide["status"])
	}
}

// TestExemplarLinksHistogramToTrace: the request latency histogram
// exposes the served request's trace ID as an OpenMetrics exemplar.
func TestExemplarLinksHistogramToTrace(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	resp, _ := post(t, srv.URL+"/project", hotspotSource(t))
	echo, err := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	// The registry is process-global and other tests observe into the
	// same histogram, so the last request's trace ID must appear on
	// *some* bucket — the one its latency landed in — rather than on
	// the first exemplared bucket of the dump.
	dump := metrics.Default.Dump()
	re := regexp.MustCompile(`grophecyd_request_seconds_bucket\{le="[^"]+"\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)
	ms := re.FindAllStringSubmatch(dump, -1)
	if len(ms) == 0 {
		t.Fatal("no exemplared grophecyd_request_seconds bucket in the metrics dump")
	}
	found := false
	for _, m := range ms {
		if m[1] == echo.TraceID.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("no bucket carries the last request's trace %s (exemplars: %v)", echo.TraceID, ms)
	}
}

// TestStatuszRenders: the live status page carries every section an
// operator reaches for — state, admission, cache, SLO burn rates,
// and the recent-run table with its trace IDs.
func TestStatuszRenders(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	resp, _ := post(t, srv.URL+"/project", hotspotSource(t))
	runID := resp.Header.Get("X-Run-Id")

	sresp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page := string(readAll(t, sresp))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status %d", sresp.StatusCode)
	}
	for _, want := range []string{"uptime", "READY", "admission", "calibration cache",
		"SLO burn rates", "availability", "latency", "recent runs", runID, "trace "} {
		if !strings.Contains(page, want) {
			t.Errorf("statusz missing %q:\n%s", want, page)
		}
	}
}

// TestSheddingStillTelemetered: a shed request (429) gets a wide
// event and counts against the availability SLO's traffic, without a
// run or stage spans.
func TestSheddingStillTelemetered(t *testing.T) {
	srv, s, logs := startDaemon(t, daemonConfig{MaxInflight: 1, MaxQueue: 0})
	s.testBlock = make(chan struct{})
	src := hotspotSource(t)
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := http.Post(srv.URL+"/project", "text/plain", strings.NewReader(src))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "first request admitted", func() bool { return s.admit.inflightCount() == 1 })

	resp, _ := post(t, srv.URL+"/project", src)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	s.testBlock <- struct{}{} // release the held request
	<-first

	shed := false
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var doc map[string]any
		if json.Unmarshal([]byte(line), &doc) == nil &&
			doc["msg"] == "request" && doc["shed"] == true {
			shed = true
			if doc["status"] != float64(http.StatusTooManyRequests) {
				t.Errorf("shed wide event status %v", doc["status"])
			}
		}
	}
	if !shed {
		t.Fatal("no wide event for the shed request")
	}
}

// TestBatchRowsCarryRunIDs: every batch row exposes its own run ID,
// and each run's walltrace endpoint serves the request trace.
func TestBatchRowsCarryRunIDs(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	body := `[{"workload":"HotSpot","size":"512 x 512"},{"workload":"SRAD","size":"1024 x 1024"}]`
	resp, data := post(t, srv.URL+"/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Jobs []struct {
			RunID string `json:"runId"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("%d rows, want 2", len(out.Jobs))
	}
	seen := map[string]bool{}
	for i, row := range out.Jobs {
		if row.RunID == "" {
			t.Fatalf("row %d has no runId: %s", i, data)
		}
		if seen[row.RunID] {
			t.Fatalf("duplicate runId %s", row.RunID)
		}
		seen[row.RunID] = true
		wt, err := http.Get(srv.URL + "/runs/" + row.RunID + "/walltrace")
		if err != nil {
			t.Fatal(err)
		}
		wtBody := readAll(t, wt)
		if wt.StatusCode != http.StatusOK {
			t.Fatalf("row %d walltrace status %d", i, wt.StatusCode)
		}
		if tid, _ := otlpSpans(t, wtBody); tid == "" {
			t.Fatalf("row %d walltrace has no spans", i)
		}
	}
}

// TestOTLPFileSink: with -otlp-file configured, each served request
// appends one OTLP/JSON line whose trace ID matches the response's
// traceparent echo.
func TestOTLPFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.ndjson")
	srv, s, _ := startDaemon(t, daemonConfig{OTLPFile: path})
	resp, _ := post(t, srv.URL+"/project", hotspotSource(t))
	echo, err := trace.ParseTraceparent(resp.Header.Get(trace.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	s.closeSinks()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d OTLP lines, want 1", len(lines))
	}
	if tid, names := otlpSpans(t, []byte(lines[0])); tid != echo.TraceID.String() || len(names) == 0 {
		t.Fatalf("sink line trace %s (%d spans), want %s", tid, len(names), echo.TraceID)
	}
}

// logRecords returns the daemon's log records so far.
func logRecords(t *testing.T, logs *syncWriter) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("log line is not JSON: %v", err)
		}
		out = append(out, doc)
	}
	return out
}

// infoRecords returns the daemon's Info-level log records so far.
func infoRecords(t *testing.T, logs *syncWriter) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, doc := range logRecords(t, logs) {
		if doc["level"] == "INFO" {
			out = append(out, doc)
		}
	}
	return out
}

// TestOneInfoRecordPerRequest: a /project or /batch request writes
// exactly one log record at any level, its wide event, which carries
// the fields the removed per-handler lines used to. A served request's
// record is Info; a failed one's is Error and carries err.
func TestOneInfoRecordPerRequest(t *testing.T) {
	srv, _, logs := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	batch := `[{"workload":"HotSpot","size":"512 x 512"},{"workload":"SRAD","size":"1024 x 1024"},{"workload":"CFD","size":"97K"}]`
	cases := []struct {
		name, path, body, accept string
		status                   int
		fields                   []string
	}{
		{"project", "/project", src, "", http.StatusOK, []string{"speedup_full", "degradations"}},
		{"batch", "/batch", batch, "", http.StatusOK, []string{"jobs", "succeeded", "streamed"}},
		{"batch ndjson", "/batch", batch, ndjsonContentType, http.StatusOK, []string{"jobs", "succeeded", "streamed"}},
		{"project 400", "/project", "kernel {", "", http.StatusBadRequest, []string{"run", "err"}},
		{"batch rejected", "/batch", `[{"workload":`, "", http.StatusBadRequest, []string{"err"}},
	}
	for _, c := range cases {
		before := len(logRecords(t, logs))
		req, err := http.NewRequest("POST", srv.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.status, body)
		}
		recs := logRecords(t, logs)[before:]
		if len(recs) != 1 || recs[0]["msg"] != "request" {
			t.Fatalf("%s: %d records, want exactly the wide event: %v", c.name, len(recs), recs)
		}
		level := "INFO"
		if c.status != http.StatusOK {
			level = "ERROR"
		}
		if recs[0]["level"] != level {
			t.Errorf("%s: wide event at %v, want %s", c.name, recs[0]["level"], level)
		}
		if _, ok := recs[0]["err"]; ok != (c.status != http.StatusOK) {
			t.Errorf("%s: wide event err present = %v, want %v: %v", c.name, ok, !ok, recs[0])
		}
		for _, f := range append(c.fields, "cache_hits", "cache_misses") {
			if _, ok := recs[0][f]; !ok {
				t.Errorf("%s: wide event missing %q: %v", c.name, f, recs[0])
			}
		}
	}
}

// TestPerRequestCacheCounts: concurrent requests — cold seeds that
// each calibrate their own key, and warm requests on the key the
// startup probe calibrated — each report exactly their own cache
// outcome on the wide event, whatever the others did meanwhile.
func TestPerRequestCacheCounts(t *testing.T) {
	srv, _, logs := startDaemon(t, daemonConfig{MaxInflight: 8})
	src := hotspotSource(t)
	type want struct{ hits, misses float64 }
	var (
		mu    sync.Mutex
		wants = map[string]want{}
		wg    sync.WaitGroup
	)
	for i := 0; i < 8; i++ {
		url, w := srv.URL+"/project", want{1, 0}
		if i%2 == 0 {
			url, w = fmt.Sprintf("%s/project?seed=%d", srv.URL, 9000+i), want{0, 1}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url, "text/plain", strings.NewReader(src))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d", url, resp.StatusCode)
			}
			mu.Lock()
			wants[resp.Header.Get("X-Run-Id")] = w
			mu.Unlock()
		}()
	}
	wg.Wait()
	seen := 0
	for _, rec := range infoRecords(t, logs) {
		w, ok := wants[fmt.Sprint(rec["run"])]
		if rec["msg"] != "request" || !ok {
			continue
		}
		seen++
		if rec["cache_hits"] != w.hits || rec["cache_misses"] != w.misses {
			t.Errorf("run %v: cache %v hits, %v misses; want %v, %v",
				rec["run"], rec["cache_hits"], rec["cache_misses"], w.hits, w.misses)
		}
	}
	if seen != len(wants) {
		t.Fatalf("%d wide events for %d requests", seen, len(wants))
	}
}

// TestBatchRunTracesMatchProject: every row of a concurrent,
// edge-free batch has a simulated trace byte-identical to the same
// job served alone through /project — sibling runs under one request
// tree never share a clock, and the service spans that differ between
// the two paths (admission) never reach it. A pool miss records its
// calibration span in the run that owns the flight, so every key is
// calibrated before the batch and both paths hit. Every retained tree
// also passes Check.
func TestBatchRunTracesMatchProject(t *testing.T) {
	srv, s, _ := startDaemon(t, daemonConfig{BatchWorkers: 4})
	src := hotspotSource(t)
	type job struct {
		seed  uint64
		iters int
	}
	jobs := []job{{7, 0}, {7, 0}, {8, 3}, {9, 0}, {experiments.DefaultSeed, 5}, {8, 3}}
	for _, j := range jobs {
		post(t, fmt.Sprintf("%s/project?seed=%d", srv.URL, j.seed), src)
	}
	var parts []string
	for _, j := range jobs {
		b, err := json.Marshal(batchJob{Skeleton: src, Seed: uptr(j.seed), Iters: j.iters})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, string(b))
	}
	resp, out, data := postBatch(t, srv.URL, "["+strings.Join(parts, ",")+"]")
	if resp.StatusCode != http.StatusOK || out.Succeeded != len(jobs) {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	for _, e := range s.recorder.Entries() {
		if err := e.Run.Tracer().Check(); err != nil {
			t.Fatalf("run %s: %v", e.ID, err)
		}
	}
	for i, row := range out.Jobs {
		_, got := getBody(t, srv.URL+"/runs/"+row.RunID+"/trace")
		url := fmt.Sprintf("%s/project?seed=%d", srv.URL, jobs[i].seed)
		if jobs[i].iters > 0 {
			url += fmt.Sprintf("&iters=%d", jobs[i].iters)
		}
		presp, _ := post(t, url, src)
		_, want := getBody(t, srv.URL+"/runs/"+presp.Header.Get("X-Run-Id")+"/trace")
		if got != want || !strings.Contains(want, `"traceEvents"`) {
			t.Errorf("row %d: batch trace differs from the /project trace\n--- batch ---\n%.600s\n--- project ---\n%.600s", i, got, want)
		}
	}
}

// TestOTLPExportHoldsTree: with a one-slot flight ring, concurrent
// requests evict each other's runs while their OTLP exports are still
// to come. The tree must survive until its request has exported it;
// under -race a span recycled mid-export is a reported race, and each
// exported line must still be a whole request tree.
func TestOTLPExportHoldsTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.ndjson")
	srv, s, _ := startDaemon(t, daemonConfig{FlightCap: 1, OTLPFile: path, MaxInflight: 8})
	src := hotspotSource(t)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(fmt.Sprintf("%s/project?seed=%d", srv.URL, 100+i%3), "text/plain", strings.NewReader(src))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Read the ring concurrently with the other requests' exports.
			if wt, err := http.Get(srv.URL + "/runs/" + resp.Header.Get("X-Run-Id") + "/walltrace"); err == nil {
				io.Copy(io.Discard, wt.Body)
				wt.Body.Close()
			}
		}()
	}
	wg.Wait()
	s.closeSinks()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != n {
		t.Fatalf("%d OTLP lines, want %d", len(lines), n)
	}
	for i, line := range lines {
		_, names := otlpSpans(t, []byte(line))
		have := map[string]int{}
		for _, name := range names {
			have[name]++
		}
		for _, want := range []string{"queue.wait", "evaluate", "stage.datausage", "stage.kernels",
			"stage.transfers", "stage.cpu", "stage.assemble", "report.assemble"} {
			if have[want] != 1 {
				t.Errorf("line %d: %d %q spans, want 1 (have %v)", i, have[want], want, names)
			}
		}
		if have["grophecyd"] != 2 {
			t.Errorf("line %d: want the request root and one run span named grophecyd, have %v", i, names)
		}
	}
}
