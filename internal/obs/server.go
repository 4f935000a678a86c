// The HTTP observability surface mounted by grophecyd: Prometheus
// metrics, net/http/pprof, liveness/readiness, and build provenance.
// It is deliberately a plain *http.ServeMux so the daemon can mount
// its own application routes beside it.
package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"grophecy/internal/metrics"
)

// Readiness is the daemon's readiness latch: not ready until PCIe
// calibration has succeeded, with degraded calibrations visible
// rather than hidden. A saturated serving layer (admission queue
// full) flips readiness back off so load balancers steer traffic
// away without killing the process. Safe for concurrent use.
type Readiness struct {
	mu        sync.Mutex
	ready     bool
	degraded  bool
	saturated bool
	detail    string
}

// SetReady marks the surface ready. detail explains a degraded
// calibration (empty for a clean one).
func (r *Readiness) SetReady(degraded bool, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ready, r.degraded, r.detail = true, degraded, detail
}

// SetSaturated records whether the serving layer is shedding load.
// While saturated, /readyz reports 503 even after a successful
// calibration; clearing saturation restores the calibrated state.
func (r *Readiness) SetSaturated(saturated bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.saturated = saturated
}

// Saturated reports whether the serving layer is currently shedding.
func (r *Readiness) Saturated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.saturated
}

// State returns the current readiness.
func (r *Readiness) State() (ready, degraded bool, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready, r.degraded, r.detail
}

// SnapshotState tracks the calibration snapshot store's lifecycle for
// the observability surfaces: where the snapshot lives, what the boot
// warm-start loaded, and how many damaged files have been quarantined
// since. Safe for concurrent use; the zero value reports "disabled".
type SnapshotState struct {
	mu          sync.Mutex
	enabled     bool
	path        string
	entries     int
	stale       int
	quarantined int
	loadDur     time.Duration
}

// SetLoaded records the outcome of the boot warm-start load.
func (s *SnapshotState) SetLoaded(path string, entries, stale, quarantined int, loadDur time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enabled = true
	s.path = path
	s.entries = entries
	s.stale = stale
	s.quarantined = quarantined
	s.loadDur = loadDur
}

// Summary returns a one-line human description for /readyz, or ""
// when the store is disabled.
func (s *SnapshotState) Summary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.enabled {
		return ""
	}
	return fmt.Sprintf("snapshot: %d entries warm-started in %s (%d stale, %d quarantined)",
		s.entries, s.loadDur.Round(time.Microsecond), s.stale, s.quarantined)
}

// Document returns the /buildinfo "snapshot" section, or nil when the
// store is disabled.
func (s *SnapshotState) Document() map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.enabled {
		return nil
	}
	return map[string]any{
		"path":         s.path,
		"entries":      s.entries,
		"stale":        s.stale,
		"quarantined":  s.quarantined,
		"loadDuration": s.loadDur.String(),
	}
}

// ServerConfig configures Mount.
type ServerConfig struct {
	// Registry backs GET /metrics; nil means metrics.Default.
	Registry *metrics.Registry
	// Ready backs GET /readyz; nil means always ready.
	Ready *Readiness
	// BuildExtra is merged into GET /buildinfo under "config" —
	// daemon-level provenance like the seed and GPU preset.
	BuildExtra map[string]string
	// Snapshot, when non-nil, adds warm-start provenance to /readyz
	// detail and a "snapshot" section to /buildinfo.
	Snapshot *SnapshotState
}

// Mount attaches the observability endpoints to mux:
//
//	GET /metrics      Prometheus text exposition of the registry
//	GET /debug/pprof/ net/http/pprof index, profiles, symbolization
//	GET /healthz      liveness (200 as long as the process serves)
//	GET /readyz       readiness (503 until calibration succeeded)
//	GET /buildinfo    module, Go version, VCS info, daemon config
func Mount(mux *http.ServeMux, cfg ServerConfig) {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.Default
	}

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, reg.Dump())
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Ready == nil {
			fmt.Fprintln(w, "ok")
			return
		}
		ready, degraded, detail := cfg.Ready.State()
		switch {
		case !ready:
			http.Error(w, "not ready: PCIe calibration pending", http.StatusServiceUnavailable)
		case cfg.Ready.Saturated():
			http.Error(w, "not ready: admission queue saturated, shedding load", http.StatusServiceUnavailable)
		case degraded:
			fmt.Fprintf(w, "ok (degraded: %s)\n", detail)
		default:
			fmt.Fprintln(w, "ok")
		}
		if ready && cfg.Snapshot != nil {
			if s := cfg.Snapshot.Summary(); s != "" {
				fmt.Fprintln(w, s)
			}
		}
	})

	mux.HandleFunc("GET /buildinfo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		doc := buildInfo(cfg.BuildExtra)
		if cfg.Snapshot != nil {
			if snap := cfg.Snapshot.Document(); snap != nil {
				doc["snapshot"] = snap
			}
		}
		enc.Encode(doc)
	})
}

// Hardened server defaults. A daemon exposed to real traffic must
// not let one slow or malicious client hold a connection (and its
// goroutine) forever: ReadHeaderTimeout caps slowloris handshakes,
// ReadTimeout caps body dribbling, IdleTimeout reaps keep-alive
// connections, and MaxHeaderBytes bounds header memory. There is
// deliberately no WriteTimeout: pprof profile captures legitimately
// stream for 30+ seconds, and projection responses are small.
const (
	DefaultReadHeaderTimeout = 5 * time.Second
	DefaultReadTimeout       = 30 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
	DefaultMaxHeaderBytes    = 1 << 20
)

// NewHTTPServer returns an *http.Server wired with the hardened
// defaults above. The caller still owns Serve/Shutdown.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		ReadTimeout:       DefaultReadTimeout,
		IdleTimeout:       DefaultIdleTimeout,
		MaxHeaderBytes:    DefaultMaxHeaderBytes,
	}
}

// buildInfo assembles the /buildinfo document from the binary's
// embedded build metadata.
func buildInfo(extra map[string]string) map[string]any {
	doc := map[string]any{
		"goVersion": runtime.Version(),
		"goos":      runtime.GOOS,
		"goarch":    runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		doc["module"] = bi.Main.Path
		if bi.Main.Version != "" {
			doc["version"] = bi.Main.Version
		}
		settings := map[string]string{}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs", "vcs.revision", "vcs.time", "vcs.modified", "CGO_ENABLED":
				settings[s.Key] = s.Value
			}
		}
		if len(settings) > 0 {
			doc["build"] = settings
		}
	}
	if len(extra) > 0 {
		doc["config"] = extra
	}
	return doc
}
