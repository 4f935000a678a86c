// Command grophecyd is the GROPHECY++ projection daemon: a
// long-running HTTP service that projects POSTed code skeletons and
// exposes a live observability surface around them.
//
//	POST /project         skeleton source in, report JSON out
//	                      (?iters=N, ?seed=S, ?target=NAME overrides)
//	POST /batch           JSON job array in, per-job report rows out
//	                      (each row byte-identical to /project)
//	GET  /targets         registered hardware targets
//	GET  /runs            flight recorder index (last N runs)
//	GET  /runs/{id}       a recorded run's report JSON
//	GET  /runs/{id}/trace a recorded run's Chrome trace_event JSON
//	GET  /runs/{id}/walltrace a recorded run's wall-clock OTLP/JSON trace
//	GET  /statusz         human-readable live status (SLOs, breakers, runs)
//	GET  /metrics         Prometheus text exposition (with trace exemplars)
//	GET  /debug/pprof/    live CPU/heap/goroutine profiles
//	GET  /healthz         liveness
//	GET  /readyz          readiness (after PCIe calibration)
//	GET  /buildinfo       build + daemon provenance
//
// Usage:
//
//	grophecyd                                  # 127.0.0.1:8090
//	grophecyd -addr :9000 -target c2050-pcie3
//	grophecyd -faults "transient=0.02" -log-format json
//	grophecyd -max-inflight 4 -max-queue 16 -queue-wait 2s
//
// Admission: at most -max-inflight projection requests run at once;
// up to -max-queue more wait in FIFO order for up to -queue-wait.
// Everything beyond that is shed with 429 + Retry-After, and /readyz
// reports 503 while the daemon is saturated. The observability
// surface is never admission-controlled.
//
// Shutdown: SIGINT/SIGTERM drains in-flight projections for up to
// -drain-timeout, then exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"grophecy/internal/experiments"
	"grophecy/internal/obs"
	"grophecy/internal/target"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks a free port)")
		seed     = flag.Uint64("seed", experiments.DefaultSeed, "default simulated machine seed (per-request ?seed= overrides)")
		tgtName  = flag.String("target", "", "hardware target registry name (see GET /targets; default: "+target.DefaultName+")")
		gpuName  = flag.String("gpu", "", "GPU preset name on the paper's CPU and bus (mutually exclusive with -target)")
		faults   = flag.String("faults", "", `fault-injection plan for every request, e.g. "transient=0.02" (see docs/ROBUSTNESS.md); empty disables`)
		flightN  = flag.Int("flight", 64, "completed runs retained by the flight recorder")
		inflight = flag.Int("max-inflight", 16, "projection requests served concurrently")
		queueCap = flag.Int("max-queue", 64, "projection requests queued beyond -max-inflight before shedding (0 disables queueing)")
		qWait    = flag.Duration("queue-wait", 5*time.Second, "longest a queued request waits for a worker slot before being shed")
		reqTO    = flag.Duration("request-timeout", time.Minute, "per-request projection deadline once admitted")
		cacheN   = flag.Int("cache-entries", 0, "calibration cache entries retained (0: engine default)")
		drain    = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight projections")
		snapDir  = flag.String("snapshot-dir", "", "directory for crash-safe calibration snapshots (empty disables persistence)")
		snapInt  = flag.Duration("snapshot-interval", time.Minute, "cadence of periodic full snapshot saves")
		chaos    = flag.String("chaos", "", `chaos-injection plan for the service path, e.g. "cal-err=0.3,seed=7" or "@plan.chaos" (see docs/ROBUSTNESS.md); empty disables`)
		calTO    = flag.Duration("cal-timeout", 0, "per-attempt calibration watchdog deadline (0: engine default)")
		calTries = flag.Int("cal-retries", 0, "calibration attempts per flight for transient failures (0: engine default)")
		brThresh = flag.Int("breaker-threshold", 0, "consecutive calibration failures that open a key's circuit breaker (0: engine default)")
		brOpen   = flag.Duration("breaker-open", 0, "how long an open circuit breaker rejects before a half-open probe (0: engine default)")
		otlpFile = flag.String("otlp-file", "", "append each request's wall-clock trace as OTLP/JSON NDJSON to this file (empty disables)")
		otlpURL  = flag.String("otlp-endpoint", "", "POST each request's wall-clock trace as OTLP/JSON to this collector URL (empty disables)")
		sloLat   = flag.Duration("slo-latency", 5*time.Second, "latency-SLO threshold: a request this fast counts as good")
		logFmt   = flag.String("log-format", "text", "log line format: text or json")
		logLevel = flag.String("log-level", "info", "minimum log severity: debug, info, warn, error")
	)
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFmt, lv)
	if err != nil {
		fatal(err)
	}

	s, err := newServer(daemonConfig{
		Seed:           *seed,
		TargetName:     *tgtName,
		GPUName:        *gpuName,
		FaultSpec:      *faults,
		FlightCap:      *flightN,
		Logger:         logger,
		MaxInflight:    *inflight,
		MaxQueue:       *queueCap,
		QueueWait:      *qWait,
		RequestTimeout: *reqTO,
		CacheEntries:   *cacheN,

		SnapshotDir:      *snapDir,
		ChaosSpec:        *chaos,
		CalTimeout:       *calTO,
		CalRetries:       *calTries,
		BreakerThreshold: *brThresh,
		BreakerOpenFor:   *brOpen,

		OTLPFile:     *otlpFile,
		OTLPEndpoint: *otlpURL,
		SLOLatency:   *sloLat,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The one stdout line: machine-readable for the smoke harness,
	// human-readable for everyone else.
	fmt.Printf("grophecyd: listening on http://%s\n", ln.Addr())
	logger.Info("grophecyd listening", "addr", ln.Addr().String(),
		"seed", *seed, "flight_capacity", *flightN)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := obs.NewHTTPServer(s.mux)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// Readiness flips only after the calibration probe succeeds; the
	// surface (healthz, metrics, pprof) is already up while it runs.
	if err := s.calibrate(ctx); err != nil {
		logger.Error("daemon is serving but will never become ready", "err", err.Error())
	}

	// Periodic full snapshots back up the per-calibration write-through;
	// they also re-persist warm-started entries whose files were lost.
	if s.store != nil {
		interval := *snapInt
		if interval <= 0 {
			interval = time.Minute
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := s.saveSnapshot(); err != nil {
						logger.Warn("periodic calibration snapshot failed", "err", err.Error())
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		logger.Info("signal received, draining in-flight projections",
			"timeout", drain.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("drain deadline exceeded, exiting anyway", "err", err.Error())
			os.Exit(1)
		}
		// A final full snapshot after the drain: every calibration that
		// completed during shutdown is on disk before the process exits.
		if err := s.saveSnapshot(); err != nil {
			logger.Error("final calibration snapshot failed", "err", err.Error())
		}
		// Drained requests have exported; flush the sinks last.
		s.closeSinks()
		logger.Info("shutdown complete")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grophecyd:", err)
	os.Exit(1)
}
