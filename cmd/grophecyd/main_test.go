// End-to-end tests: a fully wired daemon handler driven over
// httptest — the same route table a real listener serves. The
// headline assertion is CLI parity: POSTing a skeleton returns
// byte-for-byte the report JSON that `grophecy -skeleton -json`
// produces at the same seed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/errdefs"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/obs"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
	"grophecy/internal/trace"
)

// syncWriter serializes concurrent log writes in tests.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon wires a server at the default seed, runs the startup
// calibration, and serves it over httptest.
func startDaemon(t testing.TB, cfg daemonConfig) (*httptest.Server, *server, *syncWriter) {
	t.Helper()
	logs := &syncWriter{}
	if cfg.Logger == nil {
		lg, err := obs.NewLogger(logs, "json", 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Logger = lg
	}
	if cfg.Seed == 0 {
		cfg.Seed = experiments.DefaultSeed
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.mux)
	t.Cleanup(srv.Close)
	if err := s.calibrate(context.Background()); err != nil {
		t.Fatalf("startup calibration: %v", err)
	}
	return srv, s, logs
}

func hotspotSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "skeletons", "hotspot.sk"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// cliJSON computes the report JSON exactly as the CLI does at the
// given seed.
func cliJSON(t *testing.T, src string, seed uint64) []byte {
	t.Helper()
	w, err := sklang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), core.NewMachine(seed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestProjectMatchesCLIAndFlightRecorder(t *testing.T) {
	srv, _, logs := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	resp, body := post(t, srv.URL+"/project", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /project: %d\n%s", resp.StatusCode, body)
	}
	want := cliJSON(t, src, experiments.DefaultSeed)
	if !bytes.Equal(body, want) {
		t.Fatalf("daemon report differs from CLI report at the same seed.\n--- daemon ---\n%.400s\n--- cli ---\n%.400s", body, want)
	}

	// The run is queryable from the flight recorder under its run ID.
	runID := resp.Header.Get("X-Run-Id")
	if runID == "" {
		t.Fatal("response missing X-Run-Id header")
	}
	getBody := func(path string) []byte {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, r.StatusCode)
		}
		data, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if got := getBody("/runs/" + runID); !bytes.Equal(got, want) {
		t.Fatalf("flight-recorded report differs from the served one")
	}

	var idx struct {
		Retained int `json:"retained"`
		Runs     []struct {
			ID       string `json:"id"`
			Workload string `json:"workload"`
			HasTrace bool   `json:"hasTrace"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(getBody("/runs"), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Retained != 1 || idx.Runs[0].ID != runID || !idx.Runs[0].HasTrace {
		t.Fatalf("unexpected /runs index: %+v", idx)
	}

	// The run's Chrome trace: parseable, non-empty, and its root span
	// covers exactly the predicted total GPU time.
	var ct trace.ChromeTrace
	if err := json.Unmarshal(getBody("/runs/"+runID+"/trace"), &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) < 3 {
		t.Fatalf("trace export suspiciously small: %d events", len(ct.TraceEvents))
	}
	var rep struct {
		Derived struct {
			SpeedupFull float64 `json:"speedupFull"`
		} `json:"derived"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Derived.SpeedupFull <= 0 {
		t.Fatalf("speedupFull %v not positive", rep.Derived.SpeedupFull)
	}

	// Every request log line carries the run ID and a phase.
	for i, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("log line %d is not JSON: %v", i, err)
		}
		if doc[obs.FieldPhase] == nil {
			t.Errorf("log line %d has no phase: %s", i, line)
		}
		if doc["msg"] != "PCIe calibration succeeded, serving" && doc[obs.FieldRun] == nil {
			t.Errorf("projection log line %d has no run ID: %s", i, line)
		}
	}
}

func TestConcurrentProjectionsAreIdentical(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)
	want := cliJSON(t, src, experiments.DefaultSeed)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/project", "text/plain", strings.NewReader(src))
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("concurrent response diverged from the CLI report")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestProjectOverrides(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	resp, body := post(t, srv.URL+"/project?iters=8&seed=7", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST with overrides: %d\n%s", resp.StatusCode, body)
	}
	w, err := sklang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), core.NewMachine(7), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w.WithIterations(8))
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("override response differs from equivalent CLI run")
	}
}

func TestProjectRejectsBadInput(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})

	// metrics.Default is shared by every test in the package, so
	// assert on deltas, not absolute counts.
	baseReq := metricValue(t, srv.URL, "grophecyd_requests_total")
	baseErr := metricValue(t, srv.URL, "grophecyd_request_errors_total")

	resp, _ := post(t, srv.URL+"/project", "this is not a skeleton")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", resp.StatusCode)
	}

	prog, err := os.ReadFile(filepath.Join("..", "..", "skeletons", "pipeline.sk"))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = post(t, srv.URL+"/project", string(prog))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("program file: %d, want 422", resp.StatusCode)
	}

	resp, _ = post(t, srv.URL+"/project?iters=0", hotspotSource(t))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("iters=0: %d, want 400", resp.StatusCode)
	}

	// Failed requests move the metrics too.
	if d := metricValue(t, srv.URL, "grophecyd_requests_total") - baseReq; d != 3 {
		t.Errorf("grophecyd_requests_total moved by %v, want 3", d)
	}
	if d := metricValue(t, srv.URL, "grophecyd_request_errors_total") - baseErr; d != 3 {
		t.Errorf("grophecyd_request_errors_total moved by %v, want 3", d)
	}
}

// TestProjectRejectsMalformedQuery: every malformed query parameter
// is a 400 carrying a JSON error body — never a 500, never plain
// text — and an unknown target's message lists what is registered.
func TestProjectRejectsMalformedQuery(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	cases := []struct {
		name  string
		query string
	}{
		{"seed not a number", "?seed=banana"},
		{"seed negative", "?seed=-1"},
		{"iters not a number", "?iters=x"},
		{"iters zero", "?iters=0"},
		{"iters negative", "?iters=-3"},
		{"unknown target", "?target=h100-pcie5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, srv.URL+"/project"+tc.query, src)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400\n%s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error Content-Type %q, want application/json", ct)
			}
			var e struct {
				Error  string `json:"error"`
				Status int    `json:"status"`
			}
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %v\n%s", err, body)
			}
			if e.Error == "" || e.Status != http.StatusBadRequest {
				t.Fatalf("error body %+v, want message and status 400", e)
			}
			if tc.query == "?target=h100-pcie5" &&
				!strings.Contains(e.Error, target.DefaultName) {
				t.Fatalf("unknown-target message does not list registered names: %q", e.Error)
			}
		})
	}
}

// TestTargetsEndpoint: GET /targets lists the registry with the
// daemon's default flagged.
func TestTargetsEndpoint(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{})
	r, err := http.Get(srv.URL + "/targets")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /targets: %d", r.StatusCode)
	}
	var out struct {
		Default string `json:"default"`
		Targets []struct {
			Name string `json:"name"`
			GPU  string `json:"gpu"`
			CPU  string `json:"cpu"`
			Bus  struct {
				Name       string `json:"name"`
				Gen        int    `json:"gen"`
				Lanes      int    `json:"lanes"`
				Memory     string `json:"memory"`
				Calibrated bool   `json:"calibrated"`
				Directions []struct {
					Direction    string   `json:"direction"`
					SetupS       float64  `json:"setupSeconds"`
					BandwidthBps float64  `json:"bandwidthBytesPerSec"`
					Alpha        *float64 `json:"alpha"`
					Beta         *float64 `json:"beta"`
				} `json:"directions"`
			} `json:"bus"`
			Default bool `json:"default"`
		} `json:"targets"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Default != target.DefaultName {
		t.Fatalf("default target %q, want %q", out.Default, target.DefaultName)
	}
	want := target.Default.Names()
	if len(out.Targets) != len(want) {
		t.Fatalf("%d targets listed, registry has %d", len(out.Targets), len(want))
	}
	flagged, calibrated := 0, 0
	for i, row := range out.Targets {
		if row.Name != want[i] {
			t.Errorf("row %d is %q, want %q (name order)", i, row.Name, want[i])
		}
		if row.GPU == "" || row.CPU == "" || row.Bus.Name == "" {
			t.Errorf("row %q missing component names: %+v", row.Name, row)
		}
		if row.Bus.Memory != "pinned" && row.Bus.Memory != "pageable" {
			t.Errorf("row %q memory kind %q", row.Name, row.Bus.Memory)
		}
		if len(row.Bus.Directions) != 2 {
			t.Errorf("row %q has %d bus directions, want 2", row.Name, len(row.Bus.Directions))
		}
		for _, d := range row.Bus.Directions {
			if d.SetupS <= 0 || d.BandwidthBps <= 0 {
				t.Errorf("row %q direction %q has non-positive link parameters", row.Name, d.Direction)
			}
			if row.Bus.Calibrated && (d.Alpha == nil || d.Beta == nil) {
				t.Errorf("row %q is calibrated but direction %q lacks alpha/beta", row.Name, d.Direction)
			}
			if !row.Bus.Calibrated && (d.Alpha != nil || d.Beta != nil) {
				t.Errorf("row %q is uncalibrated but direction %q carries alpha/beta", row.Name, d.Direction)
			}
		}
		if row.Bus.Calibrated {
			calibrated++
		}
		if row.Default {
			flagged++
		}
	}
	if flagged != 1 {
		t.Errorf("%d rows flagged default, want exactly 1", flagged)
	}
	// The startup probe calibrated exactly the daemon's default target.
	if calibrated != 1 {
		t.Errorf("%d rows report a calibrated bus, want exactly 1 (the startup probe's)", calibrated)
	}
}

// TestTargetsEndpointWithFaults: GET /targets looks up the key a
// fault-armed daemon actually serves, so the startup probe's
// resilient calibration shows up on the default target's row.
func TestTargetsEndpointWithFaults(t *testing.T) {
	srv, _, _ := startDaemon(t, daemonConfig{FaultSpec: "transient=0.02"})
	r, err := http.Get(srv.URL + "/targets")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Targets []struct {
			Name string `json:"name"`
			Bus  struct {
				Calibrated bool `json:"calibrated"`
			} `json:"bus"`
		} `json:"targets"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	var calibrated []string
	for _, row := range out.Targets {
		if row.Bus.Calibrated {
			calibrated = append(calibrated, row.Name)
		}
	}
	if len(calibrated) != 1 || calibrated[0] != target.DefaultName {
		t.Errorf("calibrated rows %v, want only %s (the startup probe's)", calibrated, target.DefaultName)
	}
}

// TestProjectTargetOverride: ?target= projects on that hardware and
// matches a fresh CLI-style run on the same target — through the
// calibration cache, which must report hits on the repeat request.
func TestProjectTargetOverride(t *testing.T) {
	srv, s, _ := startDaemon(t, daemonConfig{})
	src := hotspotSource(t)

	const name = "c2050-pcie3"
	tgt, err := target.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sklang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), tgt.Machine(experiments.DefaultSeed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, srv.URL+"/project?target="+name, src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST ?target=%s: %d\n%s", name, resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("daemon report on non-default target differs from fresh calibration")
	}
	if body2 := cliJSON(t, src, experiments.DefaultSeed); bytes.Equal(body, body2) {
		t.Fatal("non-default target produced the default target's report")
	}

	// The repeat request reuses the cached calibration and still
	// produces identical bytes.
	hitsBefore := s.pool.Hits()
	resp, body = post(t, srv.URL+"/project?target="+name, src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST: %d", resp.StatusCode)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("cached projection differs from the fresh one")
	}
	if s.pool.Hits() <= hitsBefore {
		t.Fatalf("repeat same-target request did not hit the calibration cache (hits %d -> %d)",
			hitsBefore, s.pool.Hits())
	}
}

// metricValue fetches /metrics and returns the value of the named
// un-labeled sample.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	dump, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(dump), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("sample %q not found in /metrics dump:\n%s", name, grepLines(string(dump), "grophecyd_"))
	return 0
}

func TestReadinessLifecycle(t *testing.T) {
	logs := &syncWriter{}
	lg, err := obs.NewLogger(logs, "text", 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(daemonConfig{Seed: experiments.DefaultSeed, Logger: lg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.mux)
	defer srv.Close()

	r, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before calibration: %d, want 503", r.StatusCode)
	}
	if err := s.calibrate(context.Background()); err != nil {
		t.Fatal(err)
	}
	r, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after calibration: %d, want 200", r.StatusCode)
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestNewServerRejectsBadConfig: flag-level misconfiguration fails at
// construction, not at request time.
func TestNewServerRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  daemonConfig
	}{
		{"target and gpu together", daemonConfig{TargetName: "c2050-pcie3", GPUName: "NVIDIA Tesla C2050"}},
		{"unknown target", daemonConfig{TargetName: "h100-pcie5"}},
		{"unknown gpu", daemonConfig{GPUName: "NVIDIA H100"}},
		{"bad fault spec", daemonConfig{FaultSpec: "asdf=notanumber"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newServer(tc.cfg); err == nil {
				t.Fatal("newServer accepted a bad config")
			}
		})
	}
}

// TestDaemonLegacyGPUFlag: -gpu resolves to the registered target
// pairing that GPU with the paper's CPU and bus.
func TestDaemonLegacyGPUFlag(t *testing.T) {
	srv, s, _ := startDaemon(t, daemonConfig{GPUName: "NVIDIA Tesla C2050"})
	if s.tgt.Name != "c2050-pcie1" {
		t.Fatalf("daemon target %q, want c2050-pcie1", s.tgt.Name)
	}
	src := hotspotSource(t)
	resp, body := post(t, srv.URL+"/project", src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /project: %d\n%s", resp.StatusCode, body)
	}

	tgt, err := target.Lookup("c2050-pcie1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := sklang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), tgt.Machine(experiments.DefaultSeed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("-gpu daemon report differs from the equivalent target's CLI report")
	}
}

// TestDaemonWithFaults: a fault-armed daemon serves every backend
// through the calibration pool. Concurrent first requests share one
// resilient calibration per key; a repeat request is a pool hit whose
// body is byte-identical to the first, and both equal core.New on a
// freshly armed machine.
func TestDaemonWithFaults(t *testing.T) {
	const spec = "transient=0.02"
	srv, s, _ := startDaemon(t, daemonConfig{FaultSpec: spec})
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := hotspotSource(t)
	w, err := sklang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// A seed the startup probe did not calibrate, so every backend's
	// first requests miss.
	const reqSeed = 11
	backends := backend.Default.Names()
	url := func(bk string) string {
		return fmt.Sprintf("%s/project?backend=%s&seed=%d", srv.URL, bk, reqSeed)
	}

	const perBackend = 4
	bodies := make([][][]byte, len(backends))
	missesBefore := s.pool.Misses()
	var wg sync.WaitGroup
	for b, bk := range backends {
		bodies[b] = make([][]byte, perBackend)
		for i := 0; i < perBackend; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(url(bk), "text/plain", strings.NewReader(src))
				if err != nil {
					t.Errorf("%s: %v", bk, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: POST /project with faults: %d, %v\n%s", bk, resp.StatusCode, err, body)
				}
				bodies[b][i] = body
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got, want := s.pool.Misses()-missesBefore, int64(len(backends)); got != want {
		t.Errorf("concurrent first requests ran %d calibrations, want %d (one per backend)", got, want)
	}

	for b, bk := range backends {
		var rep struct {
			Resilient bool `json:"resilient"`
		}
		if err := json.Unmarshal(bodies[b][0], &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Resilient {
			t.Errorf("%s: fault-armed daemon served a non-resilient report", bk)
		}
		for i := 1; i < perBackend; i++ {
			if !bytes.Equal(bodies[b][i], bodies[b][0]) {
				t.Errorf("%s: concurrent request %d diverged from request 0", bk, i)
			}
		}

		misses := s.pool.Misses()
		resp, again := post(t, url(bk), src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: repeat request: %d\n%s", bk, resp.StatusCode, again)
		}
		if s.pool.Misses() != misses {
			t.Errorf("%s: repeat request recalibrated instead of hitting the pool", bk)
		}
		if !bytes.Equal(again, bodies[b][0]) {
			t.Errorf("%s: repeat request body differs from the first", bk)
		}

		m := s.tgt.Machine(reqSeed)
		m.ArmFaults(plan)
		p, err := core.New(context.Background(), m, core.Options{Backend: bk, Memory: s.tgt.Memory})
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Evaluate(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := report.JSON(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: daemon body differs from core.New on a freshly armed machine", bk)
		}
	}
}

// TestHTTPStatusMapping pins the error taxonomy → status code map.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errdefs.Invalidf("nope"), http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", errdefs.ErrMeasureTimeout), http.StatusGatewayTimeout},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := httpStatus(tc.err); got != tc.want {
			t.Errorf("httpStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
