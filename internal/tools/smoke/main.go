// Command smoke is the end-to-end smoke test `make smoke` runs: it
// builds the real grophecyd binary (race detector on), starts it on
// an ephemeral port, drives projections through the HTTP surface —
// the target registry (GET /targets, ?target=), the calibration
// cache (repeat same-target requests must hit; a 1-entry cache must
// evict), the batch endpoint (byte-identical to /project; a
// dependency chain must stream NDJSON rows parents-first), admission
// control (a held worker slot must shed concurrent requests with 429
// + Retry-After and flip /readyz), and the wall-clock telemetry
// spine (an inbound traceparent must round-trip to the response
// header, the OTLP file sink, and /runs/{id}/walltrace; /statusz
// must render; the latency histogram must carry a trace-ID exemplar;
// and the canonical wide event must land in the logs) — checks the
// request metrics moved, verifies the daemon drains cleanly on
// SIGTERM, warm-restarts from its snapshots, and finally serves every
// backend from a -faults daemon. Unlike the httptest suite this exercises the actual
// process lifecycle — flag parsing, the listener, signal handling,
// exit code.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	chaosMode := flag.Bool("chaos", false,
		"run the chaos/persistence scenario (chaos.go) instead of the standard smoke")
	flag.Parse()
	if *chaosMode {
		if err := runChaos(); err != nil {
			fmt.Fprintln(os.Stderr, "smoke-chaos: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("smoke-chaos: OK")
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: OK")
}

func run() error {
	root, err := repoRoot()
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "grophecyd-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "grophecyd")

	build := exec.Command("go", "build", "-race", "-o", bin, "./cmd/grophecyd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building grophecyd: %v\n%s", err, out)
	}

	// A deliberately tight serving configuration: one worker slot, no
	// wait queue (any concurrent request sheds), a single-entry
	// calibration cache (any second target evicts the first), the
	// OTLP file sink on so the telemetry export path runs for real,
	// and the snapshot store on so the warm-restart phase at the end
	// has persisted fits to recover.
	otlpPath := filepath.Join(dir, "otlp.ndjson")
	logPath := filepath.Join(dir, "daemon.log")
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.Mkdir(snapDir, 0o755); err != nil {
		return err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logFile.Close()
	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-log-format", "json",
		"-max-inflight", "1", "-max-queue", "0", "-queue-wait", "300ms",
		"-cache-entries", "1", "-otlp-file", otlpPath, "-snapshot-dir", snapDir)
	daemon.Dir = root
	// Tee the structured logs: visible in the smoke output, and
	// greppable afterwards for the canonical wide event.
	daemon.Stderr = io.MultiWriter(os.Stderr, logFile)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return err
	}
	// Whatever happens below, don't leave the daemon running.
	defer daemon.Process.Kill()

	base, err := listenURL(stdout)
	if err != nil {
		return err
	}
	fmt.Println("smoke: daemon up at", base)

	if err := waitReady(base, 10*time.Second); err != nil {
		return err
	}

	src, err := os.ReadFile(filepath.Join(root, "skeletons", "hotspot.sk"))
	if err != nil {
		return err
	}
	speedup, runID, err := project(base+"/project", string(src))
	if err != nil {
		return err
	}
	fmt.Printf("smoke: projected hotspot.sk, speedup %.2fx (run %s)\n", speedup, runID)

	// The target registry surface: /targets lists registered hardware,
	// and ?target= projects on a non-default node.
	tgtResp, err := http.Get(base + "/targets")
	if err != nil {
		return err
	}
	tgtBody, err := io.ReadAll(tgtResp.Body)
	tgtResp.Body.Close()
	if err != nil {
		return err
	}
	var targets struct {
		Default string `json:"default"`
		Targets []struct {
			Name string `json:"name"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(tgtBody, &targets); err != nil {
		return fmt.Errorf("GET /targets is not JSON: %v", err)
	}
	if len(targets.Targets) < 2 {
		return fmt.Errorf("GET /targets lists %d targets, want at least 2", len(targets.Targets))
	}
	var other string
	for _, t := range targets.Targets {
		if t.Name != targets.Default {
			other = t.Name
			break
		}
	}
	fmt.Printf("smoke: %d targets registered (default %s), projecting on %s\n",
		len(targets.Targets), targets.Default, other)

	otherSpeedup, _, err := project(base+"/project?target="+other, string(src))
	if err != nil {
		return fmt.Errorf("non-default target %s: %w", other, err)
	}
	if otherSpeedup == speedup {
		return fmt.Errorf("target %s projected the same speedup as the default node (%.4fx)",
			other, speedup)
	}
	// The repeat request must reuse the cached calibration.
	if _, _, err := project(base+"/project?target="+other, string(src)); err != nil {
		return err
	}

	// The prediction-backend surface: GET /backends lists the
	// registry, and ?backend=fitted projects through the
	// hardware-fitted model. The fitted calibration is write-through
	// persisted like any other, which the restart phase below relies
	// on.
	fittedRef, err := checkBackends(base, string(src))
	if err != nil {
		return err
	}
	fmt.Println("smoke: /backends listed the registry, ?backend=fitted projected deterministically")

	// POST /batch: a mixed batch whose skeleton job must return the
	// exact bytes a single POST /project returns.
	singleBody, err := projectRaw(base+"/project", string(src))
	if err != nil {
		return err
	}
	if err := checkBatch(base, string(src), singleBody); err != nil {
		return err
	}
	fmt.Println("smoke: /batch reports byte-identical to /project")

	// The dependency-aware batch path: a three-job chain streamed as
	// NDJSON must deliver parents before children with a summary line.
	if err := checkDAGBatch(base, string(src)); err != nil {
		return err
	}
	fmt.Println("smoke: /batch DAG streamed rows in dependency order")

	// Admission control: while a large batch holds the single worker
	// slot, concurrent /project requests must shed with 429 +
	// Retry-After and /readyz must report saturation.
	if err := checkShedding(base, string(src)); err != nil {
		return err
	}
	fmt.Println("smoke: saturated daemon shed load with 429 + Retry-After")

	dump, err := metricsDump(base)
	if err != nil {
		return err
	}
	requests, err := metricValue(dump, "grophecyd_requests_total")
	if err != nil {
		return err
	}
	if requests < 7 {
		return fmt.Errorf("grophecyd_requests_total = %g, want >= 7", requests)
	}
	hits, err := metricValue(dump, "engine_cache_hits_total")
	if err != nil {
		return err
	}
	misses, err := metricValue(dump, "engine_cache_misses_total")
	if err != nil {
		return err
	}
	if hits < 1 {
		return fmt.Errorf("engine_cache_hits_total = %g, want >= 1 (repeat same-target requests must skip recalibration)", hits)
	}
	evictions, err := metricValue(dump, "engine_cache_evictions_total")
	if err != nil {
		return err
	}
	if evictions < 1 {
		return fmt.Errorf("engine_cache_evictions_total = %g, want >= 1 (a 1-entry cache serving 2 targets must evict)", evictions)
	}
	fmt.Printf("smoke: calibration cache reused (%g hits, %g misses, %g evictions)\n", hits, misses, evictions)
	shed, err := metricValue(dump, "grophecyd_shed_total")
	if err != nil {
		return err
	}
	if shed < 1 {
		return fmt.Errorf("grophecyd_shed_total = %g, want >= 1", shed)
	}
	for _, name := range []string{"grophecyd_queue_depth", "grophecyd_queue_wait_seconds_count", "grophecyd_batch_jobs_total"} {
		if _, err := metricValue(dump, name); err != nil {
			return err
		}
	}

	// The wall-clock telemetry spine: traceparent round-trip, the
	// walltrace endpoint, the statusz page, and the latency exemplar.
	traceID, err := checkTelemetry(base, string(src))
	if err != nil {
		return err
	}
	fmt.Println("smoke: traceparent round-tripped through walltrace, statusz, and exemplars")

	// Clean shutdown: SIGTERM must drain and exit 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		return errors.New("daemon did not exit within 15s of SIGTERM")
	}
	fmt.Println("smoke: daemon drained and exited 0")

	// Post-mortem telemetry artifacts: the wide event must be in the
	// logs and the trace in the OTLP export file.
	logData, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	if err := checkWideEvent(logData, traceID); err != nil {
		return err
	}
	otlpData, err := os.ReadFile(otlpPath)
	if err != nil {
		return fmt.Errorf("reading OTLP sink file: %w", err)
	}
	if len(bytes.TrimSpace(otlpData)) == 0 {
		return errors.New("OTLP sink file is empty after serving requests")
	}
	if !bytes.Contains(otlpData, []byte(traceID)) {
		return fmt.Errorf("OTLP sink file does not contain trace %s", traceID)
	}
	fmt.Println("smoke: wide event logged and OTLP file export carries the trace")

	// Warm restart: a second daemon on the same snapshot directory
	// must restore the persisted fits — including the fitted
	// backend's regression coefficients — and serve the exact bytes
	// the first daemon produced, without a single new calibration.
	second, base2, err := startDaemon(root, bin, "-snapshot-dir", snapDir)
	if err != nil {
		return err
	}
	defer second.Process.Kill()
	if err := waitReady(base2, 15*time.Second); err != nil {
		return fmt.Errorf("warm-restarted daemon never became ready: %w", err)
	}
	warmFitted, err := projectRaw(base2+"/project?backend=fitted", string(src))
	if err != nil {
		return fmt.Errorf("warm-restarted ?backend=fitted: %w", err)
	}
	if !bytes.Equal(warmFitted, fittedRef) {
		return errors.New("warm-restarted fitted report differs from the pre-restart bytes")
	}
	warmMisses, err := metric(base2, "engine_cache_misses_total")
	if err != nil {
		return err
	}
	if warmMisses != 0 {
		return fmt.Errorf("warm-restarted daemon ran %g calibrations serving fitted, want 0 (fit not restored)", warmMisses)
	}
	fmt.Println("smoke: restart warm-started the persisted fitted fit, byte-identical, zero recalibrations")

	// Fault injection: a -faults daemon serves every backend through
	// the calibration pool, so a repeat request is a cache hit with
	// the same resilient bytes.
	if err := checkFaults(bin, root, string(src)); err != nil {
		return err
	}
	fmt.Println("smoke: -faults daemon served every backend resiliently, repeats from the cache")
	return nil
}

// checkFaults starts a daemon under a fault plan and, for each
// backend, POSTs the same /project twice: both must succeed with a
// resilient report, the bodies must be identical, and the repeat
// must advance engine_cache_hits_total.
func checkFaults(bin, root, src string) error {
	daemon, base, err := startDaemon(root, bin, "-faults", "transient=0.02")
	if err != nil {
		return err
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()
	if err := waitReady(base, 15*time.Second); err != nil {
		return fmt.Errorf("-faults daemon never became ready: %w", err)
	}
	for _, bk := range []string{"analytic", "fitted", "piecewise"} {
		url := base + "/project?backend=" + bk
		first, err := projectRaw(url, src)
		if err != nil {
			return fmt.Errorf("-faults ?backend=%s: %w", bk, err)
		}
		var rep struct {
			Resilient bool `json:"resilient"`
		}
		if err := json.Unmarshal(first, &rep); err != nil || !rep.Resilient {
			return fmt.Errorf("-faults ?backend=%s: report is not a resilient JSON report (%v)", bk, err)
		}
		hits, err := metric(base, "engine_cache_hits_total")
		if err != nil {
			return err
		}
		again, err := projectRaw(url, src)
		if err != nil {
			return fmt.Errorf("-faults ?backend=%s repeat: %w", bk, err)
		}
		if !bytes.Equal(first, again) {
			return fmt.Errorf("-faults ?backend=%s: repeat projection is not byte-identical", bk)
		}
		if after, err := metric(base, "engine_cache_hits_total"); err != nil || after <= hits {
			return fmt.Errorf("-faults ?backend=%s: engine_cache_hits_total %g -> %g on the repeat request (%v)", bk, hits, after, err)
		}
	}
	return nil
}

// startDaemon launches the built binary on an ephemeral port with the
// given extra flags and returns the process and base URL.
func startDaemon(root, bin string, extra ...string) (*exec.Cmd, string, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, extra...)
	daemon := exec.Command(bin, args...)
	daemon.Dir = root
	daemon.Stderr = os.Stderr
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := daemon.Start(); err != nil {
		return nil, "", err
	}
	base, err := listenURL(stdout)
	if err != nil {
		daemon.Process.Kill()
		return nil, "", err
	}
	return daemon, base, nil
}

// checkBackends exercises the backend registry surface: GET /backends
// must list the full registry with the default flagged, an unknown
// ?backend= must 400, and ?backend=fitted must project — twice,
// byte-identically, the second served from the calibration cache. It
// returns the fitted report bytes for the warm-restart comparison.
func checkBackends(base, src string) ([]byte, error) {
	resp, err := http.Get(base + "/backends")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /backends: status %d\n%.300s", resp.StatusCode, body)
	}
	var doc struct {
		Default  string `json:"default"`
		Backends []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
			Default     bool   `json:"default"`
		} `json:"backends"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("GET /backends is not JSON: %v", err)
	}
	if doc.Default != "analytic" {
		return nil, fmt.Errorf("GET /backends default = %q, want analytic", doc.Default)
	}
	names := make(map[string]bool, len(doc.Backends))
	for _, b := range doc.Backends {
		names[b.Name] = true
		if b.Description == "" {
			return nil, fmt.Errorf("backend %q listed without a description", b.Name)
		}
		if b.Default != (b.Name == doc.Default) {
			return nil, fmt.Errorf("backend %q default flag is inconsistent", b.Name)
		}
	}
	for _, want := range []string{"analytic", "fitted", "piecewise"} {
		if !names[want] {
			return nil, fmt.Errorf("GET /backends does not list %q (got %v)", want, names)
		}
	}

	bad, err := http.Post(base+"/project?backend=nope", "text/plain", strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		return nil, fmt.Errorf("?backend=nope: status %d, want 400", bad.StatusCode)
	}

	fitted, err := projectRaw(base+"/project?backend=fitted", src)
	if err != nil {
		return nil, fmt.Errorf("?backend=fitted: %w", err)
	}
	again, err := projectRaw(base+"/project?backend=fitted", src)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(fitted, again) {
		return nil, errors.New("repeat ?backend=fitted projection is not byte-identical")
	}
	return fitted, nil
}

// inboundTraceparent is the caller-minted W3C trace context the
// telemetry checks propagate through the daemon.
const inboundTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// checkTelemetry sends one traced projection and follows its trace ID
// across every surface that must carry it: the response traceparent,
// /runs/{id}/walltrace (with queue.wait and all five engine stages),
// /statusz, and a latency-histogram exemplar. It returns the trace ID
// for the post-shutdown log and OTLP checks.
func checkTelemetry(base, src string) (string, error) {
	wantTrace := inboundTraceparent[3:35]

	req, err := http.NewRequest(http.MethodPost, base+"/project", strings.NewReader(src))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("traceparent", inboundTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("traced POST /project: status %d\n%.300s", resp.StatusCode, body)
	}
	echo := resp.Header.Get("Traceparent")
	if !strings.Contains(echo, wantTrace) {
		return "", fmt.Errorf("response traceparent %q does not continue trace %s", echo, wantTrace)
	}
	if strings.Contains(echo, inboundTraceparent[36:52]) {
		return "", fmt.Errorf("response traceparent %q reused the caller's span ID", echo)
	}
	runID := resp.Header.Get("X-Run-Id")
	if runID == "" {
		return "", errors.New("traced POST /project: no X-Run-Id response header")
	}

	wt, err := http.Get(base + "/runs/" + runID + "/walltrace")
	if err != nil {
		return "", err
	}
	wtBody, err := io.ReadAll(wt.Body)
	wt.Body.Close()
	if err != nil {
		return "", err
	}
	if wt.StatusCode != http.StatusOK || len(bytes.TrimSpace(wtBody)) == 0 {
		return "", fmt.Errorf("GET /runs/%s/walltrace: status %d, %d bytes", runID, wt.StatusCode, len(wtBody))
	}
	if !bytes.Contains(wtBody, []byte(wantTrace)) {
		return "", fmt.Errorf("walltrace does not carry inbound trace %s", wantTrace)
	}
	for _, span := range []string{"queue.wait",
		"stage.datausage", "stage.kernels", "stage.transfers", "stage.cpu", "stage.assemble"} {
		if !bytes.Contains(wtBody, []byte(span)) {
			return "", fmt.Errorf("walltrace is missing the %q span\n%.400s", span, wtBody)
		}
	}

	st, err := http.Get(base + "/statusz")
	if err != nil {
		return "", err
	}
	stBody, err := io.ReadAll(st.Body)
	st.Body.Close()
	if err != nil {
		return "", err
	}
	if st.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /statusz: status %d", st.StatusCode)
	}
	for _, want := range []string{"SLO burn rates", "admission", "calibration cache", runID} {
		if !strings.Contains(string(stBody), want) {
			return "", fmt.Errorf("/statusz does not mention %q\n%.600s", want, stBody)
		}
	}

	dump, err := metricsDump(base)
	if err != nil {
		return "", err
	}
	if !strings.Contains(dump, `# {trace_id="`+wantTrace+`"}`) {
		return "", fmt.Errorf("no grophecyd_request_seconds exemplar for trace %s", wantTrace)
	}
	return wantTrace, nil
}

// checkWideEvent scans the daemon's JSON logs for the canonical
// per-request wide event of the traced projection.
func checkWideEvent(logData []byte, traceID string) error {
	for _, line := range bytes.Split(logData, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // race-build banners etc.
		}
		if rec["msg"] != "request" || rec["trace_id"] != traceID {
			continue
		}
		for _, key := range []string{"tenant", "status", "duration_ms", "run", "queue_depth", "ms.queue.wait"} {
			if _, ok := rec[key]; !ok {
				return fmt.Errorf("wide event for trace %s is missing %q: %s", traceID, key, line)
			}
		}
		return nil
	}
	return fmt.Errorf("no canonical wide event (msg=request, trace_id=%s) in the daemon logs", traceID)
}

// project POSTs a skeleton and returns the projected full speedup
// plus the run ID.
func project(url, src string) (float64, string, error) {
	resp, err := http.Post(url, "text/plain", strings.NewReader(src))
	if err != nil {
		return 0, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("POST %s: status %d\n%s", url, resp.StatusCode, body)
	}
	var rep struct {
		Derived struct {
			SpeedupFull float64 `json:"speedupFull"`
		} `json:"derived"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, "", fmt.Errorf("report is not JSON: %v", err)
	}
	if rep.Derived.SpeedupFull <= 0 {
		return 0, "", fmt.Errorf("speedupFull = %v, want > 0", rep.Derived.SpeedupFull)
	}
	return rep.Derived.SpeedupFull, resp.Header.Get("X-Run-Id"), nil
}

// projectRaw POSTs a skeleton and returns the raw response body.
func projectRaw(url, src string) ([]byte, error) {
	resp, err := http.Post(url, "text/plain", strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return body, nil
}

// checkBatch POSTs a mixed two-job batch and verifies the skeleton
// job's report is byte-identical to the single-call body.
func checkBatch(base, src string, want []byte) error {
	jobs, err := json.Marshal([]map[string]any{
		{"skeleton": src},
		{"workload": "CFD", "size": "97K", "seed": 7},
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(jobs))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /batch: status %d\n%.300s", resp.StatusCode, body)
	}
	var doc struct {
		Jobs []struct {
			Status int             `json:"status"`
			Error  string          `json:"error"`
			Report json.RawMessage `json:"report"`
		} `json:"jobs"`
		Succeeded int `json:"succeeded"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("batch response is not JSON: %v", err)
	}
	if doc.Succeeded != 2 || len(doc.Jobs) != 2 {
		return fmt.Errorf("batch: %d succeeded over %d rows, want 2/2\n%.300s",
			doc.Succeeded, len(doc.Jobs), body)
	}
	if !bytes.Equal(doc.Jobs[0].Report, want) {
		return errors.New("batch skeleton report is not byte-identical to POST /project")
	}
	// The legacy edge-free array must not grow DAG-era keys — clients
	// parsing the old shape see the old shape, byte for byte.
	for _, key := range []string{`"skipped"`, `"dependsOn"`, `"id"`, `"fromParent"`} {
		if bytes.Contains(body, []byte(key)) {
			return fmt.Errorf("edge-free batch response leaks DAG key %s", key)
		}
	}
	return nil
}

// checkDAGBatch POSTs a three-job dependency chain with
// Accept: application/x-ndjson and verifies the streamed delivery:
// one row per line, parents before children, every row 200, and a
// trailing summary line.
func checkDAGBatch(base, src string) error {
	jobs, err := json.Marshal([]map[string]any{
		{"id": "c", "dependsOn": []string{"b"}, "workload": "CFD", "size": "97K"},
		{"id": "a", "skeleton": src},
		{"id": "b", "dependsOn": []string{"a"}, "workload": "HotSpot", "size": "64 x 64"},
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/batch", bytes.NewReader(jobs))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DAG batch: status %d\n%.300s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return fmt.Errorf("DAG batch: Content-Type %q, want application/x-ndjson", ct)
	}
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	if len(lines) != 4 {
		return fmt.Errorf("DAG batch: %d NDJSON lines, want 3 rows + summary\n%.300s", len(lines), body)
	}
	var order []string
	for _, line := range lines[:3] {
		var row struct {
			ID     string `json:"id"`
			Status int    `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("DAG batch row is not one JSON line: %v\n%.300s", err, line)
		}
		if row.Status != http.StatusOK {
			return fmt.Errorf("DAG batch row %q: status %d (%s)", row.ID, row.Status, row.Error)
		}
		order = append(order, row.ID)
	}
	// The chain c<-b<-a must stream parent before child regardless of
	// request order.
	if strings.Join(order, ",") != "a,b,c" {
		return fmt.Errorf("DAG batch rows streamed as %v, want parents before children [a b c]", order)
	}
	var summary struct {
		Succeeded int  `json:"succeeded"`
		Failed    int  `json:"failed"`
		Skipped   *int `json:"skipped"`
	}
	if err := json.Unmarshal(lines[3], &summary); err != nil {
		return fmt.Errorf("DAG batch summary line: %v\n%.300s", err, lines[3])
	}
	if summary.Succeeded != 3 || summary.Failed != 0 || summary.Skipped == nil || *summary.Skipped != 0 {
		return fmt.Errorf("DAG batch summary %s, want 3 succeeded / 0 failed / 0 skipped", lines[3])
	}
	return nil
}

// checkShedding occupies the daemon's single worker slot with a large
// batch, then probes /project until a request sheds: the 429 must
// carry Retry-After, /readyz must report saturation while the batch
// runs, and readiness must recover once it drains.
func checkShedding(base, src string) error {
	const batchJobs = 192
	jobs := make([]map[string]any, batchJobs)
	for i := range jobs {
		jobs[i] = map[string]any{"workload": "CFD", "size": "97K", "seed": 1000 + i}
	}
	body, err := json.Marshal(jobs)
	if err != nil {
		return err
	}

	batchDone := make(chan error, 1)
	go func() {
		// A probe request can occasionally win the slot first and shed
		// the batch itself; retry until the batch is the holder.
		for {
			resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				batchDone <- err
				return
			}
			respBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				batchDone <- err
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				continue
			}
			if resp.StatusCode != http.StatusOK {
				batchDone <- fmt.Errorf("big batch: status %d\n%.300s", resp.StatusCode, respBody)
				return
			}
			var doc struct {
				Succeeded int `json:"succeeded"`
			}
			if err := json.Unmarshal(respBody, &doc); err != nil {
				batchDone <- err
				return
			}
			if doc.Succeeded != batchJobs {
				batchDone <- fmt.Errorf("big batch: %d succeeded, want %d", doc.Succeeded, batchJobs)
				return
			}
			batchDone <- nil
			return
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	shed := false
	for time.Now().Before(deadline) {
		resp, err := http.Post(base+"/project", "text/plain", strings.NewReader(src))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				return errors.New("429 response missing the Retry-After header")
			}
			shed = true
			break
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("probe /project: status %d", resp.StatusCode)
		}
	}
	if !shed {
		return errors.New("no request shed while the batch held the worker slot")
	}

	// The batch is still holding the slot, so saturation is visible.
	r, err := http.Get(base + "/readyz")
	if err != nil {
		return err
	}
	rb, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(rb), "saturated") {
		return fmt.Errorf("/readyz while saturated: %d %q, want 503 mentioning saturation", r.StatusCode, rb)
	}

	if err := <-batchDone; err != nil {
		return err
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(base + "/readyz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("/readyz did not recover after the batch drained")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricsDump fetches the /metrics text exposition.
func metricsDump(base string) (string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	return string(dump), nil
}

// metricValue extracts an un-labeled sample's value from a dump.
func metricValue(dump, name string) (float64, error) {
	for _, line := range strings.Split(dump, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("sample %q not found in /metrics dump", name)
}

// metric fetches /metrics and extracts one un-labeled sample.
func metric(base, name string) (float64, error) {
	dump, err := metricsDump(base)
	if err != nil {
		return 0, err
	}
	return metricValue(dump, name)
}

// repoRoot walks up from the working directory to the go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above working directory")
		}
		dir = parent
	}
}

// listenURL reads the daemon's one stdout line
// ("grophecyd: listening on http://HOST:PORT") and returns the URL.
func listenURL(stdout io.Reader) (string, error) {
	sc := bufio.NewScanner(stdout)
	linec := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		if sc.Scan() {
			linec <- sc.Text()
			return
		}
		errc <- fmt.Errorf("daemon exited before announcing its address (%v)", sc.Err())
	}()
	select {
	case line := <-linec:
		i := strings.Index(line, "http://")
		if i < 0 {
			return "", fmt.Errorf("unexpected announce line %q", line)
		}
		return strings.TrimSpace(line[i:]), nil
	case err := <-errc:
		return "", err
	case <-time.After(10 * time.Second):
		return "", errors.New("daemon did not announce its address within 10s")
	}
}

// waitReady polls /readyz until the calibration probe has flipped it.
func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon not ready within %v", timeout)
}
