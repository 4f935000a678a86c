package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grophecy/internal/metrics"
)

func testSurface(t *testing.T, ready *Readiness) *httptest.Server {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.MustCounter("obs_test_hits_total", "test counter").Add(3)
	mux := http.NewServeMux()
	Mount(mux, ServerConfig{
		Registry:   reg,
		Ready:      ready,
		BuildExtra: map[string]string{"seed": "42"},
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testSurface(t, nil)
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if !strings.Contains(body, "obs_test_hits_total 3") {
		t.Fatalf("metrics dump missing counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE obs_test_hits_total counter") {
		t.Fatalf("metrics dump missing TYPE line:\n%s", body)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	ready := &Readiness{}
	srv := testSurface(t, ready)

	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	if code, _ := get(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz before calibration: %d, want 503", code)
	}

	ready.SetReady(true, "CPU-to-GPU conservative fallback")
	code, body := get(t, srv.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("GET /readyz after calibration: %d", code)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "conservative fallback") {
		t.Fatalf("degraded calibration invisible in readiness: %q", body)
	}

	ready.SetReady(false, "")
	if _, body := get(t, srv.URL+"/readyz"); strings.TrimSpace(body) != "ok" {
		t.Fatalf("clean readiness body: %q", body)
	}
}

func TestBuildInfo(t *testing.T) {
	srv := testSurface(t, nil)
	code, body := get(t, srv.URL+"/buildinfo")
	if code != http.StatusOK {
		t.Fatalf("GET /buildinfo: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("buildinfo not JSON: %v\n%s", err, body)
	}
	if doc["goVersion"] == "" {
		t.Fatal("buildinfo missing goVersion")
	}
	cfg, _ := doc["config"].(map[string]any)
	if cfg["seed"] != "42" {
		t.Fatalf("buildinfo missing daemon config: %v", doc)
	}
}

func TestPprofIndex(t *testing.T) {
	srv := testSurface(t, nil)
	code, body := get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected body:\n%.200s", body)
	}
}

// TestReadinessSaturation: a saturated serving layer flips /readyz to
// 503 even after a successful calibration, and clearing saturation
// restores the calibrated state (including its degradation detail).
func TestReadinessSaturation(t *testing.T) {
	ready := &Readiness{}
	srv := testSurface(t, ready)

	ready.SetReady(false, "")
	if code, _ := get(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("GET /readyz calibrated: %d, want 200", code)
	}

	ready.SetSaturated(true)
	code, body := get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz saturated: %d, want 503", code)
	}
	if !strings.Contains(body, "saturated") {
		t.Fatalf("saturated readiness body does not say why: %q", body)
	}
	if !ready.Saturated() {
		t.Fatal("Saturated() lost the latch")
	}

	ready.SetSaturated(false)
	if code, _ := get(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("GET /readyz after drain: %d, want 200", code)
	}
}

// TestNewHTTPServerHardened: the production server carries the
// anti-slowloris timeouts and header bound.
func TestNewHTTPServerHardened(t *testing.T) {
	mux := http.NewServeMux()
	srv := NewHTTPServer(mux)
	if srv.Handler == nil {
		t.Fatal("handler not wired")
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts not set: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes <= 0 {
		t.Fatal("MaxHeaderBytes not bounded")
	}
}

func TestSnapshotStateSurfaces(t *testing.T) {
	snap := &SnapshotState{}
	ready := &Readiness{}
	reg := metrics.NewRegistry()
	mux := http.NewServeMux()
	Mount(mux, ServerConfig{Registry: reg, Ready: ready, Snapshot: snap})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	// Disabled store: no snapshot line, no /buildinfo section.
	ready.SetReady(false, "")
	if _, body := get(t, srv.URL+"/readyz"); strings.Contains(body, "snapshot") {
		t.Errorf("/readyz mentions a disabled snapshot store:\n%s", body)
	}
	_, info := get(t, srv.URL+"/buildinfo")
	var doc map[string]any
	if err := json.Unmarshal([]byte(info), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["snapshot"]; ok {
		t.Error("/buildinfo has a snapshot section for a disabled store")
	}

	// Loaded store: both surfaces report warm-start provenance.
	snap.SetLoaded("/var/lib/grophecy/snap", 7, 1, 0, 1500*time.Microsecond)
	snap.AddQuarantined(2)
	code, body := get(t, srv.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("GET /readyz: %d", code)
	}
	for _, want := range []string{"snapshot: 7 entries", "1 stale", "2 quarantined"} {
		if !strings.Contains(body, want) {
			t.Errorf("/readyz missing %q:\n%s", want, body)
		}
	}
	_, info = get(t, srv.URL+"/buildinfo")
	if err := json.Unmarshal([]byte(info), &doc); err != nil {
		t.Fatal(err)
	}
	section, ok := doc["snapshot"].(map[string]any)
	if !ok {
		t.Fatalf("/buildinfo lacks snapshot section:\n%s", info)
	}
	if section["path"] != "/var/lib/grophecy/snap" || section["entries"] != float64(7) ||
		section["quarantined"] != float64(2) || section["loadDuration"] != "1.5ms" {
		t.Errorf("snapshot section = %v", section)
	}

	// Not ready: the snapshot line must not leak into the 503 body.
	notReady := &Readiness{}
	mux2 := http.NewServeMux()
	Mount(mux2, ServerConfig{Registry: reg, Ready: notReady, Snapshot: snap})
	srv2 := httptest.NewServer(mux2)
	t.Cleanup(srv2.Close)
	if code, body := get(t, srv2.URL+"/readyz"); code != http.StatusServiceUnavailable || strings.Contains(body, "snapshot") {
		t.Errorf("not-ready /readyz = %d %q", code, body)
	}
}
