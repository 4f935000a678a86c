// Package engine provides the serving-side projector pool: a
// concurrency-safe calibration cache keyed by (target, backend,
// memory kind, seed, fault plan). It is the only way grophecyd gets a
// projector.
//
// The paper's pipeline calibrates the PCIe transfer model by timing
// real transfers ("automatically invoked by GROPHECY++ when run on a
// new system", §III-C). That is the right behaviour once per machine
// — and exactly the wrong behaviour once per request: a daemon that
// recalibrates on every POST pays 2×Runs simulated transfers of pure
// overhead per projection. The Pool runs the calibration once per
// key, shares the in-flight calibration among concurrent requests
// (singleflight), and hands every caller a fresh machine with the
// cached calibration bound to it (core.Restore). The pool holds each
// calibration decoded, as the backend instance it predicts with, so a
// hit binds and decodes nothing; a fit is decoded once, when Warm
// loads it. Calibration never advances a machine's own streams, so a
// cached projection is bit-identical to a calibrate-then-project one,
// while repeat requests skip the calibration transfers entirely.
//
// Resilience semantics (see docs/ROBUSTNESS.md):
//
//   - Watchdog: every calibration attempt runs under Config.CalTimeout;
//     a stuck calibration surfaces as errdefs.ErrMeasureTimeout instead
//     of pinning its flight (and the admission slot above it) forever.
//   - Retry: attempts that fail with errdefs.ErrTransient are retried
//     up to Config.Retries times with capped exponential backoff inside
//     the one flight, so waiters sharing the flight ride the retries.
//   - Breaker: each key has a circuit breaker (breaker.go). After
//     Config.BreakerThreshold consecutive flight failures the key fails
//     fast with errdefs.ErrCircuitOpen until a half-open probe
//     succeeds.
//   - Panics: a panicking calibration is recovered into an error
//     wrapping errdefs.ErrPanic, the flight is always closed so waiters
//     never hang, and failed flights are never cached.
//   - Cancellation: a calibration owner whose context is cancelled
//     aborts promptly with ctx.Err(); waiters blocked on that flight
//     re-enter the pool and one of them becomes the new owner. Owner
//     cancellation is nobody's fault: it neither trips the breaker nor
//     resets it.
//
// Persistence: the portable form of a completed calibration is
// store.Entry, the snapshot store's own entry. Export snapshots them,
// Warm pre-loads a fresh pool from a snapshot (decoding each entry
// once through core.Decode), and Config.OnCalibrated
// write-through-persists each new calibration as it completes, so a
// crash loses at most the flight in progress.
//
// Fault injection: a pool configured with a non-empty fault plan
// (Config.Faults) arms every machine it builds, so its calibrations
// run the resilient protocol, and the plan's fingerprint is part of
// every key. A fault-armed calibration also carries its health
// record, which the snapshot format does not: armed entries stay in
// memory and are neither exported nor written through. Chaos
// (fault.Chaos) is different: it perturbs the service path around the
// calibration, never the simulated observations, so chaos-surviving
// calibrations stay bit-identical and persistable.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/metrics"
	"grophecy/internal/pcie"
	"grophecy/internal/store"
	"grophecy/internal/target"
	"grophecy/internal/trace"
	"grophecy/internal/xfermodel"
)

// Cache instruments. Hits count requests served from a completed or
// in-flight calibration; misses count calibrations actually run;
// evictions count completed entries dropped to stay under the bound.
var (
	mHits = metrics.Default.MustCounter("engine_cache_hits_total",
		"projector requests served from the calibration cache")
	mMisses = metrics.Default.MustCounter("engine_cache_misses_total",
		"projector requests that ran a fresh calibration")
	mEntries = metrics.Default.MustGauge("engine_cache_entries",
		"calibrations currently cached")
	mEvictions = metrics.Default.MustCounter("engine_cache_evictions_total",
		"completed calibrations evicted to keep the cache bounded")
	mRetries = metrics.Default.MustCounter("engine_cal_retries_total",
		"calibration attempts retried after a transient failure")
	mWarmed = metrics.Default.MustCounter("engine_cache_warmed_total",
		"calibrations pre-loaded from a persisted snapshot")
)

// Key identifies one cached calibration.
type Key struct {
	// Target is the registry name of the hardware target.
	Target string
	// Backend is the registry name of the prediction backend
	// (internal/backend). Different backends calibrate differently, so
	// they never share a flight.
	Backend string
	// Kind is the host memory kind the model was calibrated for.
	Kind pcie.MemoryKind
	// Seed is the machine seed; the bus noise stream derives from it,
	// so calibrations at different seeds observe different transfers.
	Seed uint64
	// Plan is the fault plan's fingerprint (fault.Plan.String()), ""
	// for a clean machine.
	Plan string
}

// stored and poolKey convert between the pool's key and the snapshot
// store's, which has no fault plan: armed calibrations are never
// persisted.
func (k Key) stored() store.Key {
	return store.Key{Target: k.Target, Backend: k.Backend, Kind: k.Kind, Seed: k.Seed}
}

func poolKey(k store.Key) Key {
	return Key{Target: k.Target, Backend: k.Backend, Kind: k.Kind, Seed: k.Seed}
}

// flight is one singleflight slot: the first goroutine for a key
// calibrates and closes ready; everyone else waits on it. cal is the
// decoded calibration every hit binds to its fresh machine.
type flight struct {
	ready chan struct{}
	cal   core.Calibration
	err   error

	// done and lastUse are guarded by Pool.mu. done marks a completed
	// (cached) calibration; only done flights are eviction candidates.
	// lastUse is the pool's LRU clock tick of the most recent access.
	done    bool
	lastUse uint64
}

// Pool defaults.
const (
	// DefaultMaxEntries bounds the cache when no limit is configured.
	DefaultMaxEntries = 256
	// DefaultCalTimeout is the per-attempt calibration watchdog.
	DefaultCalTimeout = 30 * time.Second
	// DefaultRetries is the attempt budget per flight for transient
	// failures.
	DefaultRetries = 3
	// DefaultBackoff is the base retry backoff; attempt n waits
	// DefaultBackoff << n, capped at maxBackoff.
	DefaultBackoff = 25 * time.Millisecond
	// maxBackoff caps the exponential retry backoff.
	maxBackoff = time.Second
)

// Config tunes a Pool. The zero value gets the defaults above, no
// chaos, and no write-through hook.
type Config struct {
	// MaxEntries bounds the cache (DefaultMaxEntries if <= 0).
	MaxEntries int
	// CalTimeout is the watchdog deadline per calibration attempt
	// (DefaultCalTimeout if <= 0).
	CalTimeout time.Duration
	// Retries is the attempt budget per flight for transient failures
	// (DefaultRetries if <= 0; 1 disables retrying).
	Retries int
	// Backoff is the base retry backoff (DefaultBackoff if <= 0).
	Backoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// key's circuit breaker (DefaultBreakerThreshold if <= 0).
	BreakerThreshold int
	// BreakerOpenFor is how long an open breaker rejects before a
	// half-open probe (DefaultBreakerOpenFor if <= 0).
	BreakerOpenFor time.Duration
	// Faults, when non-empty, arms every machine the pool builds with
	// this plan: calibrations and evaluations then run the resilient
	// protocol, and keys carry the plan's fingerprint.
	Faults fault.Plan
	// Chaos, when non-nil, injects calibration latency, transient
	// errors, and panics into the service path (never into simulated
	// observations). Nil in production.
	Chaos *fault.Chaos
	// OnCalibrated, when non-nil, is called with every newly completed
	// calibration, outside the pool lock — the daemon uses it to
	// write-through-persist entries so a hard kill loses nothing. The
	// context is the calibrating request's, so persistence I/O shows
	// up on that request's wall trace.
	OnCalibrated func(context.Context, store.Entry)
}

// Pool is the calibration cache. The zero value is not usable; use
// NewPool or NewPoolWith.
type Pool struct {
	max          int
	calTimeout   time.Duration
	retries      int
	backoff      time.Duration
	brThreshold  int
	brOpenFor    time.Duration
	faults       fault.Plan
	plan         string // faults' fingerprint, "" when clean
	chaos        *fault.Chaos
	onCalibrated func(context.Context, store.Entry)

	mu       sync.Mutex
	flights  map[Key]*flight
	breakers map[Key]*breaker
	clock    uint64 // LRU tick, incremented under mu on every access

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// now is the breaker clock; tests freeze it. Production uses
	// time.Now.
	now func() time.Time

	// calibrateHook, when non-nil, runs in the owner goroutine right
	// before each calibration attempt, after the attempt's context
	// check. Tests use it to hold a flight in-flight deterministically;
	// production code never sets it.
	calibrateHook func(Key)
}

// NewPool returns an empty pool retaining at most max calibrations
// (DefaultMaxEntries if max <= 0), with default resilience settings.
func NewPool(max int) *Pool {
	return NewPoolWith(Config{MaxEntries: max})
}

// NewPoolWith returns an empty pool tuned by cfg.
func NewPoolWith(cfg Config) *Pool {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.CalTimeout <= 0 {
		cfg.CalTimeout = DefaultCalTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultBackoff
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerOpenFor <= 0 {
		cfg.BreakerOpenFor = DefaultBreakerOpenFor
	}
	p := &Pool{
		max:          cfg.MaxEntries,
		calTimeout:   cfg.CalTimeout,
		retries:      cfg.Retries,
		backoff:      cfg.Backoff,
		brThreshold:  cfg.BreakerThreshold,
		brOpenFor:    cfg.BreakerOpenFor,
		faults:       cfg.Faults,
		chaos:        cfg.Chaos,
		onCalibrated: cfg.OnCalibrated,
		flights:      make(map[Key]*flight),
		breakers:     make(map[Key]*breaker),
		now:          time.Now,
	}
	if !cfg.Faults.Empty() {
		p.plan = cfg.Faults.String()
	}
	return p
}

// Key returns the cache key this pool serves for the given target,
// backend, memory kind and seed under its own fault plan.
func (p *Pool) Key(target, backendName string, kind pcie.MemoryKind, seed uint64) Key {
	return Key{Target: target, Backend: backendName, Kind: kind, Seed: seed, Plan: p.plan}
}

// Hits returns how many projector requests this pool served without
// running a calibration.
func (p *Pool) Hits() int64 { return p.hits.Load() }

// Misses returns how many calibrations this pool ran.
func (p *Pool) Misses() int64 { return p.misses.Load() }

// Evictions returns how many completed calibrations were evicted.
func (p *Pool) Evictions() int64 { return p.evictions.Load() }

// Len returns the number of cached calibrations.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.flights)
}

// OpenBreakers returns the keys whose circuit breaker is currently
// open, sorted, for observability surfaces.
func (p *Pool) OpenBreakers() []Key {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Key
	for k, b := range p.breakers {
		if b.state == breakerOpen {
			out = append(out, k)
		}
	}
	sortKeys(out)
	return out
}

// Export returns every completed clean calibration as a portable
// snapshot, sorted by key. In-flight, failed and fault-armed flights
// are not exported.
func (p *Pool) Export() []store.Entry {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]Key, 0, len(p.flights))
	for k, f := range p.flights {
		if f.done && f.err == nil && k.Plan == "" {
			keys = append(keys, k)
		}
	}
	sortKeys(keys)
	out := make([]store.Entry, len(keys))
	for i, k := range keys {
		cal := p.flights[k].cal
		out[i] = store.Entry{Key: k.stored(), Model: cal.Model(), Fit: cal.Fit}
	}
	return out
}

// Warm pre-loads completed clean calibrations, e.g. from a persisted
// snapshot, and returns how many were installed. Each entry's fit is
// decoded here, once. Entries with invalid keys, fits of another or
// an unregistered backend or memory kind, fits that do not decode, or
// a stored model other than the one the fit decodes to are skipped,
// as are keys already present; warming stops at the pool bound rather
// than evicting anything. A warmed key serves hits immediately,
// bit-identical to a key the pool calibrated itself.
func (p *Pool) Warm(entries []store.Entry) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	warmed := 0
	for _, e := range entries {
		key := poolKey(e.Key)
		if key.Target == "" || e.Fit.Backend != key.Backend || e.Fit.Kind != key.Kind {
			continue
		}
		if _, ok := p.flights[key]; ok {
			continue
		}
		if len(p.flights) >= p.max {
			break
		}
		// A snapshot from a build with different backends must not
		// poison the cache.
		cal, err := core.Decode(e.Fit)
		if err != nil || cal.Model() != e.Model {
			continue
		}
		f := &flight{ready: make(chan struct{}), cal: cal, done: true}
		close(f.ready)
		p.clock++
		f.lastUse = p.clock
		p.flights[key] = f
		warmed++
		mWarmed.Inc()
	}
	mEntries.Set(float64(len(p.flights)))
	return warmed
}

// Cached returns the α/β summary of the completed calibration for
// key, if the pool holds one. It never waits on an in-flight
// calibration — display surfaces (GET /targets) use it to show α/β
// without triggering work.
func (p *Pool) Cached(key Key) (xfermodel.BusModel, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.flights[key]
	if !ok || !f.done || f.err != nil {
		return xfermodel.BusModel{}, false
	}
	return f.cal.Model(), true
}

// keyLess orders keys for deterministic exports and listings.
func keyLess(a, b Key) bool {
	if a.Target != b.Target {
		return a.Target < b.Target
	}
	if a.Backend != b.Backend {
		return a.Backend < b.Backend
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Seed != b.Seed {
		return a.Seed < b.Seed
	}
	return a.Plan < b.Plan
}

func sortKeys(ks []Key) {
	sort.Slice(ks, func(i, j int) bool { return keyLess(ks[i], ks[j]) })
}

// retriable reports whether a flight error reflects the owner's
// cancelled context rather than a property of the key: waiters retry
// those, since their own contexts may still be live.
func retriable(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Projector returns a ready projector for the target at the given
// backend, seed, and memory kind, on a fresh machine private to the
// caller. The first call for a key calibrates; concurrent calls for
// the same key share that one calibration; later calls reuse it
// without touching the bus. Either way the returned projector
// produces reports bit-identical to core.New on a fresh machine
// (armed with the pool's fault plan, if any). backendName "" means
// the analytic default; an
// unknown backend fails fast with errdefs.ErrInvalidInput before any
// flight or breaker state is touched.
//
// ctx bounds both the wait on an in-flight calibration and the
// calibration this call runs itself; a cancelled owner closes the
// flight with ctx.Err() so waiters re-enter and retry. A key whose
// breaker is open fails fast with errdefs.ErrCircuitOpen.
func (p *Pool) Projector(ctx context.Context, tgt target.Target, backendName string, seed uint64, kind pcie.MemoryKind) (*core.Projector, error) {
	b, err := backend.Get(backendName)
	if err != nil {
		return nil, err
	}
	key := p.Key(tgt.Name, b.Name(), kind, seed)

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		p.mu.Lock()
		f, ok := p.flights[key]
		if ok {
			p.clock++
			f.lastUse = p.clock
			done := f.done
			p.mu.Unlock()

			// Cache hit — completed or in flight; wait without holding
			// the lock so unrelated keys proceed. The wall span records
			// which kind of hit this was: cal.cache_hit resolves
			// immediately, cal.wait rode out someone else's calibration.
			spanName := "cal.wait"
			if done {
				spanName = "cal.cache_hit"
			}
			_, span := trace.StartWall(ctx, spanName,
				trace.String("cal_key", key.Target),
				trace.String("cal_backend", key.Backend),
				trace.String("cal_kind", key.Kind.String()))
			select {
			case <-f.ready:
				span.End()
			case <-ctx.Done():
				span.End()
				return nil, ctx.Err()
			}
			if f.err != nil {
				if retriable(f.err) {
					// The owner was cancelled, not the calibration broken:
					// the flight is already out of the map, so loop and
					// either find a new owner's flight or become the owner.
					continue
				}
				return nil, f.err
			}
			p.hits.Add(1)
			mHits.Inc()
			return core.Restore(p.machine(tgt, seed), f.cal)
		}

		// Cache miss — consult the key's breaker before owning a
		// flight; an open breaker fails fast so a pathological key
		// cannot consume calibration work (or the admission slot above
		// it) on every request.
		br := p.breakers[key]
		if br == nil {
			br = &breaker{}
			p.breakers[key] = br
		}
		if !br.admitLocked(p.now(), p.brOpenFor) {
			p.mu.Unlock()
			mBreakerRejects.Inc()
			_, span := trace.StartWall(ctx, "cal.breaker_open",
				trace.String("cal_key", key.Target),
				trace.String("breaker", breakerOpen.String()))
			span.End()
			return nil, fmt.Errorf("%w: calibration for %s/%s/%v/seed=%d suspended after repeated failures, next probe within %s",
				errdefs.ErrCircuitOpen, key.Target, key.Backend, key.Kind, key.Seed, p.brOpenFor)
		}

		// This goroutine owns the calibration flight (or, half-open,
		// the probe flight).
		f = &flight{ready: make(chan struct{})}
		p.clock++
		f.lastUse = p.clock
		p.evictLocked()
		p.flights[key] = f
		mEntries.Set(float64(len(p.flights)))
		brState := br.state
		p.mu.Unlock()

		p.misses.Add(1)
		mMisses.Inc()
		cctx, span := trace.StartWall(ctx, "cal.compute",
			trace.String("cal_key", key.Target),
			trace.String("cal_backend", key.Backend),
			trace.String("cal_kind", key.Kind.String()),
			trace.String("breaker", brState.String()))
		p.runFlight(cctx, key, f, tgt)
		span.SetAttr(trace.Bool("cal_ok", f.err == nil))
		span.End()
		if f.err != nil {
			return nil, f.err
		}
		return core.Restore(p.machine(tgt, seed), f.cal)
	}
}

// runFlight executes one owned calibration flight: up to p.retries
// attempts with capped exponential backoff for transient failures.
// Whatever happens — success, error, panic, cancellation — the map
// and the breaker are settled first and the ready channel closed
// next, so waiters woken by the close can never re-find a dead
// flight; the write-through hook runs last, outside the lock.
func (p *Pool) runFlight(ctx context.Context, key Key, f *flight, tgt target.Target) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("%w: calibrating %s/%v/seed=%d: %v\n%s",
				errdefs.ErrPanic, key.Target, key.Kind, key.Seed, r, debug.Stack())
		}
		p.mu.Lock()
		if f.err != nil {
			// Failed flights are not cached: a later request retries.
			if p.flights[key] == f {
				delete(p.flights, key)
				mEntries.Set(float64(len(p.flights)))
			}
			// An owner cancellation is nobody's fault; anything else
			// counts against the key's breaker.
			if !retriable(f.err) {
				if br := p.breakers[key]; br != nil {
					br.onFailureLocked(p.now(), p.brThreshold)
				}
			}
		} else {
			f.done = true
			if br := p.breakers[key]; br != nil {
				br.onSuccessLocked()
				delete(p.breakers, key)
			}
		}
		p.mu.Unlock()
		close(f.ready)
		if f.err == nil && p.onCalibrated != nil && key.Plan == "" {
			p.onCalibrated(ctx, store.Entry{Key: key.stored(), Model: f.cal.Model(), Fit: f.cal.Fit})
		}
	}()
	for attempt := 0; ; attempt++ {
		f.cal, f.err = p.calibrateOnce(ctx, key, tgt)
		if f.err == nil || !errdefs.Retryable(f.err) || attempt+1 >= p.retries {
			return
		}
		mRetries.Inc()
		d := p.backoff << attempt
		if d > maxBackoff {
			d = maxBackoff
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			f.err = ctx.Err()
			return
		}
	}
}

// calibrateOnce runs one watchdogged calibration attempt, with the
// chaos injection points (latency, error, panic) ahead of the real
// work — chaos perturbs the service path, never the measurements.
func (p *Pool) calibrateOnce(ctx context.Context, key Key, tgt target.Target) (core.Calibration, error) {
	wctx, cancel := context.WithTimeout(ctx, p.calTimeout)
	defer cancel()
	if d := p.chaos.CalibrationDelay(); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-wctx.Done():
			t.Stop()
			return core.Calibration{}, p.watchdogErr(ctx, wctx, key, wctx.Err())
		}
	}
	p.chaos.CalibrationPanic()
	if err := p.chaos.CalibrationError(); err != nil {
		return core.Calibration{}, err
	}
	cal, err := p.calibrate(wctx, key, tgt)
	if err != nil {
		return core.Calibration{}, p.watchdogErr(ctx, wctx, key, err)
	}
	return cal, nil
}

// watchdogErr maps an expired flight watchdog to
// errdefs.ErrMeasureTimeout — a property of the key that waiters must
// see and the breaker must count — while passing the caller's own
// cancellation through untouched so waiters still retry it.
func (p *Pool) watchdogErr(ctx, wctx context.Context, key Key, err error) error {
	if wctx.Err() != nil && ctx.Err() == nil {
		return fmt.Errorf("%w: calibration watchdog (%s) expired for %s/%v/seed=%d: %v",
			errdefs.ErrMeasureTimeout, p.calTimeout, key.Target, key.Kind, key.Seed, err)
	}
	return err
}

// evictLocked makes room for one more entry: it drops
// least-recently-used *completed* flights until the pool is under its
// bound. In-flight calibrations are never evicted — evicting one
// would orphan its waiters — so the pool may transiently exceed max
// when every entry is still calibrating. lastUse ticks are unique, so
// the eviction order is deterministic regardless of map iteration
// order. Callers must hold p.mu.
func (p *Pool) evictLocked() {
	for len(p.flights) >= p.max {
		var (
			victim  Key
			victimF *flight
		)
		for k, f := range p.flights {
			if !f.done {
				continue
			}
			if victimF == nil || f.lastUse < victimF.lastUse {
				victim, victimF = k, f
			}
		}
		if victimF == nil {
			return
		}
		delete(p.flights, victim)
		p.evictions.Add(1)
		mEvictions.Inc()
	}
}

// calibrate runs the key's backend calibration on a throwaway machine
// and returns it. The caller's context is checked before the expensive work
// and again after it, so a cancelled request neither starts a
// calibration it no longer wants nor caches a result it observed only
// partially.
func (p *Pool) calibrate(ctx context.Context, key Key, tgt target.Target) (core.Calibration, error) {
	if err := ctx.Err(); err != nil {
		return core.Calibration{}, err
	}
	if p.calibrateHook != nil {
		p.calibrateHook(key)
	}
	proj, err := core.New(ctx, p.machine(tgt, key.Seed), core.Options{Backend: key.Backend, Memory: key.Kind})
	if err != nil {
		return core.Calibration{}, err
	}
	if err := ctx.Err(); err != nil {
		return core.Calibration{}, err
	}
	return proj.Calibration(), nil
}

// machine returns a fresh, caller-private machine for tgt at seed,
// armed with the pool's fault plan when it has one.
func (p *Pool) machine(tgt target.Target, seed uint64) *core.Machine {
	m := tgt.Machine(seed)
	if p.plan != "" {
		m.ArmFaults(p.faults)
	}
	return m
}
