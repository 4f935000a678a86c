// The daemon's HTTP application layer: the projection endpoint, the
// per-request machinery around it (run IDs, tracing, flight
// recording, request metrics), the hardware-target surface
// (?target=, GET /targets), and the startup calibration probe that
// flips readiness. Split from main.go so the end-to-end tests can
// drive a fully wired handler through httptest without a process or
// a real listener.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/engine"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/flight"
	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/pcie"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/slo"
	"grophecy/internal/store"
	"grophecy/internal/target"
	"grophecy/internal/trace"
)

// Request-level instruments. Unlike every other instrument in the
// repository these observe *wall-clock* service latency — grophecyd
// is a live daemon and its request metrics are operational, not
// modeled; the projection results themselves stay deterministic.
var (
	mRequests = metrics.Default.MustCounter("grophecyd_requests_total",
		"projection requests received (any outcome)")
	mRequestErrors = metrics.Default.MustCounter("grophecyd_request_errors_total",
		"projection requests that returned a non-2xx status")
	mRequestSeconds = metrics.Default.MustHistogram("grophecyd_request_seconds",
		"wall-clock projection request latency in seconds", metrics.TimeBuckets())
	mInflight = metrics.Default.MustGauge("grophecyd_inflight",
		"projection requests currently in flight")
)

// Admission instruments. Queue wait is wall-clock for the same reason
// the request metrics are: admission is an operational property of
// the live daemon, not of the simulated machine.
var (
	mQueueDepth = metrics.Default.MustGauge("grophecyd_queue_depth",
		"projection requests waiting in the admission queue")
	mQueueWait = metrics.Default.MustHistogram("grophecyd_queue_wait_seconds",
		"wall-clock admission queue wait in seconds", metrics.WaitBuckets())
	mShed = metrics.Default.MustCounter("grophecyd_shed_total",
		"projection requests shed by admission control (429s)")
)

// maxSkeletonBytes bounds a POSTed skeleton source.
const maxSkeletonBytes = 1 << 20

// daemonConfig is everything a server needs, flag-shaped.
type daemonConfig struct {
	Seed       uint64
	TargetName string // registry name; empty: target.DefaultName
	GPUName    string // legacy -gpu flag; empty: the target's GPU
	FaultSpec  string // fault plan string; empty or "none" disables
	FlightCap  int
	Logger     *slog.Logger

	// Admission-control knobs (see admission.go). Zero values mean:
	// 16 concurrent requests, no wait queue, 5s queue wait. MaxQueue
	// is the literal queue capacity — main.go's flag default is 64.
	MaxInflight int
	MaxQueue    int
	QueueWait   time.Duration

	// RequestTimeout bounds each admitted request's projection work;
	// zero means one minute.
	RequestTimeout time.Duration

	// CacheEntries bounds the calibration cache; zero means
	// engine.DefaultMaxEntries.
	CacheEntries int

	// BatchWorkers bounds per-batch fan-out; zero means GOMAXPROCS.
	BatchWorkers int

	// SnapshotDir, when non-empty, enables the crash-safe calibration
	// snapshot store (internal/store): loaded at boot to warm the
	// cache, written through on every new calibration, and saved in
	// full periodically and on graceful shutdown.
	SnapshotDir string

	// SnapshotInterval is the periodic full-save cadence; zero means
	// one minute.
	SnapshotInterval time.Duration

	// ChaosSpec arms the daemon-level chaos harness (see
	// fault.ParseChaos); empty or "none" disables. Chaos perturbs the
	// service path — calibration latency/errors/panics, snapshot I/O —
	// never the simulated measurements.
	ChaosSpec string

	// Calibration resilience knobs; zero values take the engine
	// defaults (see engine.Config).
	CalTimeout       time.Duration
	CalRetries       int
	BreakerThreshold int
	BreakerOpenFor   time.Duration

	// OTLPFile and OTLPEndpoint configure wall-clock trace export:
	// NDJSON appended to a local file and/or OTLP/JSON POSTed to a
	// collector URL. Empty disables that sink; traces always remain
	// available per run via GET /runs/{id}/walltrace.
	OTLPFile     string
	OTLPEndpoint string

	// SLOLatency is the latency objective's threshold — a request is
	// "fast" when it finishes within it. Zero means 5s.
	SLOLatency time.Duration
}

// server is one wired daemon instance.
type server struct {
	cfg      daemonConfig
	tgt      target.Target
	pool     *engine.Pool
	recorder *flight.Recorder
	ready    *obs.Readiness
	admit    *admitter
	mux      *http.ServeMux
	chaos    *fault.Chaos
	store    *store.Store
	snap     *obs.SnapshotState
	slo      *slo.Tracker
	sinks    []trace.Sink
	started  time.Time

	// testBlock, when non-nil, is received from by every admitted
	// request before its handler runs — tests use it to hold worker
	// slots occupied deterministically. Nil in production.
	testBlock chan struct{}
}

// newServer validates cfg and wires the full route table.
func newServer(cfg daemonConfig) (*server, error) {
	plan, err := fault.ParsePlan(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	tgt, err := target.Resolve(cfg.TargetName, cfg.GPUName)
	if err != nil {
		return nil, err
	}
	if cfg.FlightCap <= 0 {
		cfg.FlightCap = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 16
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Minute
	}
	chaos, err := fault.ParseChaos(cfg.ChaosSpec)
	if err != nil {
		return nil, err
	}
	if cfg.SLOLatency <= 0 {
		cfg.SLOLatency = 5 * time.Second
	}
	s := &server{
		cfg:      cfg,
		tgt:      tgt,
		recorder: flight.MustNew(cfg.FlightCap),
		ready:    &obs.Readiness{},
		admit:    newAdmitter(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueWait, cfg.Seed),
		mux:      http.NewServeMux(),
		chaos:    chaos,
		snap:     &obs.SnapshotState{},
		started:  time.Now(),
	}
	s.slo, err = slo.New(slo.Config{
		Objectives: slo.DefaultObjectives(cfg.SLOLatency),
		Registry:   metrics.Default,
	})
	if err != nil {
		return nil, err
	}
	if cfg.OTLPFile != "" {
		fs, err := trace.NewFileSink(cfg.OTLPFile)
		if err != nil {
			return nil, err
		}
		s.sinks = append(s.sinks, fs)
	}
	if cfg.OTLPEndpoint != "" {
		s.sinks = append(s.sinks, trace.NewHTTPSink(cfg.OTLPEndpoint))
	}
	poolCfg := engine.Config{
		MaxEntries:       cfg.CacheEntries,
		CalTimeout:       cfg.CalTimeout,
		Retries:          cfg.CalRetries,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerOpenFor:   cfg.BreakerOpenFor,
		Faults:           plan,
		Chaos:            chaos,
	}
	if cfg.SnapshotDir != "" {
		st, err := store.Open(cfg.SnapshotDir, target.Default.Fingerprint(), chaos)
		if err != nil {
			return nil, err
		}
		s.store = st
		// Write-through: every completed calibration is persisted as it
		// lands, so even a SIGKILL loses at most the flight in progress.
		// A failed write degrades durability, not serving.
		poolCfg.OnCalibrated = func(ctx context.Context, e engine.Entry) {
			if err := st.Put(ctx, storeEntry(e)); err != nil {
				cfg.Logger.Warn("calibration write-through failed", "err", err.Error())
			}
		}
	}
	s.pool = engine.NewPoolWith(poolCfg)
	if s.store != nil {
		res, err := s.store.Load(context.Background())
		if err != nil {
			return nil, err
		}
		warmed := s.pool.Warm(engineEntries(res.Entries))
		s.snap.SetLoaded(s.store.Dir(), warmed, res.Stale, res.Quarantined, res.Duration)
		cfg.Logger.Info("calibration snapshot loaded",
			"dir", s.store.Dir(), "warmed", warmed,
			"stale", res.Stale, "quarantined", res.Quarantined,
			"duration", res.Duration.String())
		for _, p := range res.Problems {
			cfg.Logger.Warn("snapshot file quarantined", "err", p.Error())
		}
	}
	s.admit.onQueueDepth = func(depth int) { mQueueDepth.Set(float64(depth)) }
	s.admit.onSaturated = s.ready.SetSaturated
	obs.Mount(s.mux, obs.ServerConfig{
		Ready:    s.ready,
		Snapshot: s.snap,
		BuildExtra: map[string]string{
			"seed":            strconv.FormatUint(cfg.Seed, 10),
			"target":          tgt.Name,
			"gpu":             tgt.GPU.Name,
			"cpu":             tgt.CPU.Name,
			"bus":             tgt.BusName,
			"faults":          plan.String(),
			"chaos":           chaos.String(),
			"snapshot_dir":    cfg.SnapshotDir,
			"flight_capacity": strconv.Itoa(cfg.FlightCap),
			"admission":       s.admit.String(),
			"request_timeout": cfg.RequestTimeout.String(),
		},
	})
	s.recorder.Mount(s.mux)
	s.mux.HandleFunc("POST /project", s.admitted(s.handleProject))
	s.mux.HandleFunc("POST /batch", s.admitted(obs.LimitBody(maxBatchBytes, s.handleBatch)))
	s.mux.HandleFunc("GET /targets", s.handleTargets)
	s.mux.HandleFunc("GET /backends", s.handleBackends)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	return s, nil
}

// closeSinks flushes and closes the OTLP exporters; shutdown calls it
// after the drain so in-flight traces still reach the sinks.
func (s *server) closeSinks() {
	for _, sink := range s.sinks {
		if err := sink.Close(); err != nil {
			s.cfg.Logger.Warn("closing trace sink", "err", err.Error())
		}
	}
}

// storeEntry and engineEntries convert between the pool's and the
// snapshot store's entry shapes; the two packages deliberately do not
// import each other, so the daemon owns the translation.
func storeEntry(e engine.Entry) store.Entry {
	return store.Entry{
		Key:   store.Key{Target: e.Key.Target, Backend: e.Key.Backend, Kind: e.Key.Kind, Seed: e.Key.Seed},
		Model: e.Model,
		Fit:   e.Fit,
	}
}

func engineEntries(es []store.Entry) []engine.Entry {
	out := make([]engine.Entry, len(es))
	for i, e := range es {
		out[i] = engine.Entry{
			Key:   engine.Key{Target: e.Key.Target, Backend: e.Key.Backend, Kind: e.Key.Kind, Seed: e.Key.Seed},
			Model: e.Model,
			Fit:   e.Fit,
		}
	}
	return out
}

// saveSnapshot persists every completed calibration to the store —
// the periodic ticker and graceful shutdown both land here. A no-op
// when persistence is disabled.
func (s *server) saveSnapshot() error {
	if s.store == nil {
		return nil
	}
	entries := s.pool.Export()
	out := make([]store.Entry, len(entries))
	for i, e := range entries {
		out[i] = storeEntry(e)
	}
	return s.store.SaveAll(context.Background(), out)
}

// calibrateProbeAttempts bounds the startup probe's own retry loop;
// each attempt already carries the pool's transient-retry budget, so
// this only has to outlast a chaos streak or a breaker window.
const calibrateProbeAttempts = 3

// calibrate is the startup probe: it calibrates the configured target
// at the configured seed (warming the cache for the daemon's default
// key) and flips readiness, carrying any degradation into the
// readiness detail instead of hiding it. Under chaos a probe attempt
// can fail even after the pool's retries, so the probe itself retries
// a few times before giving up — a daemon that could serve must not
// stay not-ready because its first calibration drew badly.
func (s *server) calibrate(ctx context.Context) error {
	ctx = obs.WithLogger(ctx, s.cfg.Logger)
	ctx = obs.WithPhase(ctx, "calibrate")
	var (
		p   *core.Projector
		err error
	)
	for attempt := 1; ; attempt++ {
		p, err = s.pool.Projector(ctx, s.tgt, backend.DefaultName, s.cfg.Seed, s.tgt.Memory)
		if err == nil || ctx.Err() != nil || attempt >= calibrateProbeAttempts {
			break
		}
		obs.Log(ctx).Warn("startup PCIe calibration attempt failed, retrying",
			"attempt", attempt, "err", err.Error())
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
		}
	}
	if err != nil {
		obs.Log(ctx).Error("startup PCIe calibration failed; staying not-ready", "err", err.Error())
		return err
	}
	if h := p.Health(); h != nil && h.Degraded() {
		detail := strings.Join(h.Degradations, "; ")
		s.ready.SetReady(true, detail)
		obs.Log(ctx).Warn("ready with degraded PCIe calibration",
			"degradations", len(h.Degradations), "detail", detail)
		return nil
	}
	s.ready.SetReady(false, "")
	bm := p.BusModel()
	obs.Log(ctx).Info("PCIe calibration succeeded, serving",
		"target", s.tgt.Name,
		"transfers", bm.CalibrationTransfers,
		"bus_cost_s", fmt.Sprintf("%.3g", bm.CalibrationCost))
	return nil
}

// httpStatus maps a pipeline error to a response status.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, errdefs.ErrInvalidInput):
		return http.StatusBadRequest
	case errors.Is(err, errdefs.ErrCircuitOpen):
		// The key's calibration is suspended; the request was refused
		// cheaply, not failed expensively — tell the client to back off.
		return http.StatusServiceUnavailable
	case errors.Is(err, errdefs.ErrMeasureTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, errdefs.ErrSkipped):
		// A batch job that never ran because its dependency failed:
		// 424 Failed Dependency, per row.
		return http.StatusFailedDependency
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The per-request timeout (or the client) cut the projection
		// short; surface it as a gateway timeout, not a daemon bug.
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeError emits the daemon's error shape: a JSON body carrying the
// message and status, so clients never have to scrape plain text.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error":  err.Error(),
		"status": status,
	})
}

// busDirJSON is one direction of a target's bus profile: the
// configured link parameters, plus the calibrated two-point model
// when this daemon has already calibrated the target (at its own
// seed and memory kind) — absent otherwise, never recomputed just to
// serve a listing.
type busDirJSON struct {
	Direction    string   `json:"direction"`
	SetupS       float64  `json:"setupSeconds"`
	BandwidthBps float64  `json:"bandwidthBytesPerSec"`
	Alpha        *float64 `json:"alpha,omitempty"`
	Beta         *float64 `json:"beta,omitempty"`
}

// busJSON is the full bus profile of one GET /targets row.
type busJSON struct {
	Name       string       `json:"name"`
	Gen        int          `json:"gen,omitempty"`
	Lanes      int          `json:"lanes,omitempty"`
	Memory     string       `json:"memory"`
	Calibrated bool         `json:"calibrated"`
	Directions []busDirJSON `json:"directions"`
}

// targetJSON is one row of the GET /targets response.
type targetJSON struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	GPU         string  `json:"gpu"`
	CPU         string  `json:"cpu"`
	Bus         busJSON `json:"bus"`
	Default     bool    `json:"default,omitempty"`
}

// busProfile assembles one target's bus row: static link parameters
// from the pcie.Config, calibrated α/β from the pool when the
// analytic calibration this daemon serves for (target, daemon seed,
// target memory) is already cached.
func (s *server) busProfile(t target.Target) busJSON {
	b := busJSON{
		Name:   t.BusName,
		Gen:    t.BusGen,
		Lanes:  t.BusLanes,
		Memory: t.Memory.String(),
	}
	entry, ok := s.pool.Cached(s.pool.Key(t.Name, backend.DefaultName, t.Memory, s.cfg.Seed))
	b.Calibrated = ok
	for d := pcie.Direction(0); d < pcie.NumDirections; d++ {
		dir := busDirJSON{
			Direction:    d.String(),
			SetupS:       t.Bus.Pinned[d].SetupLatency,
			BandwidthBps: t.Bus.Pinned[d].Bandwidth,
		}
		if ok {
			alpha, beta := entry.Model.Dir[d].Alpha, entry.Model.Dir[d].Beta
			dir.Alpha, dir.Beta = &alpha, &beta
		}
		b.Directions = append(b.Directions, dir)
	}
	return b
}

// handleTargets serves GET /targets: the registered hardware targets,
// in name order, each with its full bus profile, with the daemon's
// configured default flagged.
func (s *server) handleTargets(w http.ResponseWriter, req *http.Request) {
	list := target.Default.List()
	out := struct {
		Default string       `json:"default"`
		Targets []targetJSON `json:"targets"`
	}{Default: s.tgt.Name, Targets: make([]targetJSON, 0, len(list))}
	for _, t := range list {
		out.Targets = append(out.Targets, targetJSON{
			Name:        t.Name,
			Description: t.Description,
			GPU:         t.GPU.Name,
			CPU:         t.CPU.Name,
			Bus:         s.busProfile(t),
			Default:     t.Name == s.tgt.Name,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// handleBackends serves GET /backends: the registered prediction
// backends with the registry default flagged.
func (s *server) handleBackends(w http.ResponseWriter, req *http.Request) {
	type backendJSON struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		Default     bool   `json:"default,omitempty"`
	}
	list := backend.Default.List()
	out := struct {
		Default  string        `json:"default"`
		Backends []backendJSON `json:"backends"`
	}{Default: backend.DefaultName, Backends: make([]backendJSON, 0, len(list))}
	for _, b := range list {
		out.Backends = append(out.Backends, backendJSON{
			Name:        b.Name(),
			Description: b.Description(),
			Default:     b.Name() == backend.DefaultName,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// handleProject serves POST /project: body is a single-workload
// skeleton source (.sk); optional query parameters `iters` (override
// the iteration count), `seed` (override the machine seed), and
// `target` (project onto a registered hardware target instead of the
// daemon's default). The response is the same report JSON the CLI's
// -json flag prints, and the completed run — report, trace, error —
// lands in the flight recorder under the X-Run-ID response header.
// Errors are JSON: {"error": "...", "status": N}.
func (s *server) handleProject(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	runID := obs.NewRunID()
	w.Header().Set("X-Run-Id", runID)
	ctx := obs.WithLogger(req.Context(), s.cfg.Logger)
	ctx = obs.WithRun(ctx, runID)
	event := obs.EventFrom(ctx)
	event.Set("run", runID)

	// A failure rides on the request's wide event as err, which the
	// envelope then writes at Error level.
	fail := func(status int, err error) {
		mRequestErrors.Inc()
		if errors.Is(err, errdefs.ErrCircuitOpen) {
			w.Header().Set("Retry-After", strconv.Itoa(s.admit.retryAfterSeconds()))
		}
		event.Set("err", err.Error())
		writeError(w, status, err)
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxSkeletonBytes))
	if err != nil {
		fail(http.StatusBadRequest, fmt.Errorf("reading skeleton body: %w", err))
		return
	}
	src := string(body)
	wl, err := sklang.Parse(src)
	if errors.Is(err, sklang.ErrNotWorkload) {
		fail(http.StatusUnprocessableEntity,
			errors.New("multi-phase program files are not supported; POST a single-workload skeleton"))
		return
	}
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}

	query := req.URL.Query()
	seed := s.cfg.Seed
	if qs := query.Get("seed"); qs != "" {
		seed, err = strconv.ParseUint(qs, 10, 64)
		if err != nil {
			fail(http.StatusBadRequest, fmt.Errorf("bad seed %q: %w", qs, err))
			return
		}
	}
	if qi := query.Get("iters"); qi != "" {
		n, err := strconv.Atoi(qi)
		if err != nil || n < 1 {
			fail(http.StatusBadRequest, fmt.Errorf("bad iteration count %q", qi))
			return
		}
		wl = wl.WithIterations(n)
	}
	tgt := s.tgt
	if qt := query.Get("target"); qt != "" {
		tgt, err = target.Lookup(qt)
		if err != nil {
			// target.Lookup's message lists the registered names.
			fail(http.StatusBadRequest, err)
			return
		}
	}
	backendName := backend.DefaultName
	if qb := query.Get("backend"); qb != "" {
		b, err := backend.Get(qb)
		if err != nil {
			// backend.Get's message lists the registered names.
			fail(http.StatusBadRequest, err)
			return
		}
		backendName = b.Name()
	}

	ctx = obs.WithWorkload(ctx, wl.Name)
	ctx, run := trace.StartRun(ctx, "grophecyd")

	event.Set("workload", wl.Name)
	event.Set("target", tgt.Name)
	event.Set("backend", backendName)
	event.Set("seed", seed)

	entry := flight.Entry{
		ID:       runID,
		Workload: wl.Name,
		DataSize: wl.DataSize,
		Source:   src,
		Seed:     seed,
		Start:    start,
	}
	rep, err := s.project(ctx, tgt, backendName, seed, wl)
	run.End()
	entry.Run = run
	entry.Duration = time.Since(start)
	if err != nil {
		entry.Err = err.Error()
		s.recorder.Add(entry)
		fail(httpStatus(err), err)
		return
	}
	entry.Report = rep
	s.recorder.Add(entry)
	event.Set("speedup_full", fmt.Sprintf("%.3g", rep.SpeedupFull()))
	event.Set("degradations", len(rep.Degradations))

	data, err := report.JSON(rep)
	if err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// project runs one full evaluation on a machine private to this
// request, calibrated through the cache.
func (s *server) project(ctx context.Context, tgt target.Target, backendName string, seed uint64, wl core.Workload) (core.Report, error) {
	p, err := s.pool.Projector(ctx, tgt, backendName, seed, tgt.Memory)
	if err != nil {
		return core.Report{}, err
	}
	return p.Evaluate(ctx, wl)
}
