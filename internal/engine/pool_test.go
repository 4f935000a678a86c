package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"grophecy/internal/backend"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/gpu"
	"grophecy/internal/pcie"
	"grophecy/internal/report"
	"grophecy/internal/target"
)

const seed = 20130520

func workload(t *testing.T) core.Workload {
	t.Helper()
	ws, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name == "HotSpot" {
			return w
		}
	}
	return ws[0]
}

func freshJSON(t *testing.T, tgt target.Target, w core.Workload) []byte {
	t.Helper()
	p, err := core.New(context.Background(), tgt.Machine(seed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func pooledJSON(t *testing.T, pool *Pool, tgt target.Target, w core.Workload) []byte {
	t.Helper()
	p, err := pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPoolBitIdenticalToFreshCalibration is the cache's contract:
// first (miss) and second (hit) pooled projections both reproduce the
// calibrate-every-time report byte for byte, on default and
// non-default targets.
func TestPoolBitIdenticalToFreshCalibration(t *testing.T) {
	w := workload(t)
	for _, name := range []string{target.DefaultName, "c2050-pcie3", "c1060-pcie2-x5650"} {
		t.Run(name, func(t *testing.T) {
			tgt, err := target.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			want := freshJSON(t, tgt, w)
			pool := NewPool(0)
			miss := pooledJSON(t, pool, tgt, w)
			hit := pooledJSON(t, pool, tgt, w)
			if !bytes.Equal(miss, want) {
				t.Error("miss-path report differs from fresh calibration")
			}
			if !bytes.Equal(hit, want) {
				t.Error("hit-path report differs from fresh calibration")
			}
			if pool.Misses() != 1 || pool.Hits() != 1 {
				t.Errorf("misses=%d hits=%d, want 1 and 1", pool.Misses(), pool.Hits())
			}
		})
	}
}

// TestPoolSingleflight: concurrent requests to one key share a single
// calibration and all see identical reports.
func TestPoolSingleflight(t *testing.T) {
	w := workload(t)
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	want := freshJSON(t, tgt, w)
	pool := NewPool(0)

	const clients = 8
	out := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned)
			if err != nil {
				t.Error(err)
				return
			}
			rep, err := p.Evaluate(w)
			if err != nil {
				t.Error(err)
				return
			}
			data, err := report.JSON(rep)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = data
		}(i)
	}
	wg.Wait()

	for i, data := range out {
		if !bytes.Equal(data, want) {
			t.Errorf("client %d diverged from the fresh-calibration report", i)
		}
	}
	if pool.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (singleflight)", pool.Misses())
	}
	if pool.Hits() != clients-1 {
		t.Errorf("hits = %d, want %d", pool.Hits(), clients-1)
	}
	if pool.Len() != 1 {
		t.Errorf("cached entries = %d, want 1", pool.Len())
	}
}

// TestPoolKeysAreDistinct: seed, target, and memory kind all key the
// cache.
func TestPoolKeysAreDistinct(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	other, err := target.Lookup("c2050-pcie3")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(0)
	ctx := context.Background()
	calls := []func() (*core.Projector, error){
		func() (*core.Projector, error) { return pool.Projector(ctx, tgt, backend.DefaultName, 1, pcie.Pinned) },
		func() (*core.Projector, error) { return pool.Projector(ctx, tgt, backend.DefaultName, 2, pcie.Pinned) },
		func() (*core.Projector, error) {
			return pool.Projector(ctx, tgt, backend.DefaultName, 1, pcie.Pageable)
		},
		func() (*core.Projector, error) {
			return pool.Projector(ctx, other, backend.DefaultName, 1, pcie.Pinned)
		},
	}
	for i, call := range calls {
		if _, err := call(); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if pool.Misses() != int64(len(calls)) {
		t.Errorf("misses = %d, want %d (all keys distinct)", pool.Misses(), len(calls))
	}
	if pool.Hits() != 0 {
		t.Errorf("hits = %d, want 0", pool.Hits())
	}
}

// TestPoolBounded: the cache never retains more than max entries.
func TestPoolBounded(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	ctx := context.Background()
	for s := uint64(1); s <= 5; s++ {
		if _, err := pool.Projector(ctx, tgt, backend.DefaultName, s, pcie.Pinned); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Len() > 2 {
		t.Errorf("cache holds %d entries, cap is 2", pool.Len())
	}
	if pool.Misses() != 5 {
		t.Errorf("misses = %d, want 5", pool.Misses())
	}
	if pool.Evictions() != 3 {
		t.Errorf("evictions = %d, want 3", pool.Evictions())
	}
}

// panickingTarget is a target whose Machine factory panics:
// pcie.NewBus rejects the zero bus config. This models any
// programmer-error panic escaping from the calibration path.
func panickingTarget() target.Target {
	return target.Target{
		Name:    "broken-bus",
		GPU:     gpu.QuadroFX5600(),
		CPU:     cpumodel.XeonE5405(),
		Bus:     pcie.Config{}, // invalid: Machine() panics in pcie.NewBus
		BusName: "broken",
	}
}

// TestPoolCalibrationPanicClosesFlight is the hang regression: a
// panic inside the calibration used to leave f.ready unclosed, so
// every later Projector call for the key blocked forever and the key
// was poisoned. Now the panic is recovered into errdefs.ErrPanic, the
// flight closes, and the key stays retryable. The breaker threshold
// is raised out of the way here — breaker fail-fast on repeated
// failures has its own tests in breaker_test.go.
func TestPoolCalibrationPanicClosesFlight(t *testing.T) {
	pool := NewPoolWith(Config{BreakerThreshold: 1 << 20})
	bad := panickingTarget()

	const clients = 6
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := pool.Projector(context.Background(), bad, backend.DefaultName, seed, pcie.Pinned)
			errs <- err
		}()
	}
	for i := 0; i < clients; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errdefs.ErrPanic) {
				t.Errorf("client %d: error %v, want errdefs.ErrPanic", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a Projector call hung on the panicked flight")
		}
	}
	// The failed flight must not be cached, and a fresh call must
	// return (another ErrPanic, not a hang).
	if pool.Len() != 0 {
		t.Errorf("pool retains %d entries after a panicked calibration, want 0", pool.Len())
	}
	done := make(chan error, 1)
	go func() {
		_, err := pool.Projector(context.Background(), bad, backend.DefaultName, seed, pcie.Pinned)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errdefs.ErrPanic) {
			t.Errorf("retry error %v, want errdefs.ErrPanic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retry after a panicked calibration hung (poisoned key)")
	}
}

// TestPoolCancelledContext: the miss path honours the caller's
// context — a cancelled owner reports ctx.Err(), does not cache, and
// the key stays usable for the next caller.
func TestPoolCancelledContext(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pool.Projector(ctx, tgt, backend.DefaultName, seed, pcie.Pinned); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled miss returned %v, want context.Canceled", err)
	}
	if pool.Len() != 0 {
		t.Fatalf("cancelled calibration was cached (%d entries)", pool.Len())
	}
	if _, err := pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned); err != nil {
		t.Fatalf("key unusable after a cancelled owner: %v", err)
	}
}

// TestPoolWaitersRetryAfterOwnerCancelled: a waiter sharing a flight
// whose owner gets cancelled must not inherit the owner's ctx error —
// it re-enters the pool, becomes the new owner, and succeeds.
func TestPoolWaitersRetryAfterOwnerCancelled(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(0)

	entered := make(chan struct{})
	gate := make(chan struct{})
	first := true
	var mu sync.Mutex
	pool.calibrateHook = func(Key) {
		mu.Lock()
		blockThis := first
		first = false
		mu.Unlock()
		if blockThis {
			close(entered)
			<-gate
		}
	}

	ownerCtx, cancel := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := pool.Projector(ownerCtx, tgt, backend.DefaultName, seed, pcie.Pinned)
		ownerErr <- err
	}()
	<-entered

	waiterRes := make(chan error, 1)
	go func() {
		_, err := pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned)
		waiterRes <- err
	}()

	cancel()
	close(gate)

	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled owner returned %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterRes:
		if err != nil {
			t.Errorf("waiter inherited the owner's cancellation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after the owner was cancelled")
	}
}

// TestPoolNeverEvictsInflight: an in-flight calibration is never the
// eviction victim, even when the pool is over its bound — evicting it
// would orphan its waiters.
func TestPoolNeverEvictsInflight(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1)
	ctx := context.Background()

	// Seed a completed entry, then hold a second key in flight.
	if _, err := pool.Projector(ctx, tgt, backend.DefaultName, 1, pcie.Pinned); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	pool.calibrateHook = func(k Key) {
		if k.Seed == 2 {
			close(entered)
			<-gate
		}
	}
	inflightErr := make(chan error, 1)
	go func() {
		_, err := pool.Projector(ctx, tgt, backend.DefaultName, 2, pcie.Pinned)
		inflightErr <- err
	}()
	<-entered
	// Inserting seed 2 evicted the completed seed-1 entry (the only
	// candidate); the pool now holds exactly the in-flight flight.
	if got := pool.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1 (the completed entry)", got)
	}

	// A third key arrives while seed 2 is still calibrating: the only
	// entry is in flight, so nothing is evictable and the pool
	// transiently exceeds its bound instead.
	if _, err := pool.Projector(ctx, tgt, backend.DefaultName, 3, pcie.Pinned); err != nil {
		t.Fatal(err)
	}
	if got := pool.Evictions(); got != 1 {
		t.Errorf("evictions = %d after over-cap insert, want still 1 (in-flight spared)", got)
	}
	if got := pool.Len(); got != 2 {
		t.Errorf("pool holds %d entries, want 2 (in-flight + new)", got)
	}

	close(gate)
	if err := <-inflightErr; err != nil {
		t.Fatalf("in-flight calibration failed: %v", err)
	}
	// The spared flight completed and is served from cache.
	hitsBefore := pool.Hits()
	if _, err := pool.Projector(ctx, tgt, backend.DefaultName, 2, pcie.Pinned); err != nil {
		t.Fatal(err)
	}
	if pool.Hits() != hitsBefore+1 {
		t.Error("the in-flight flight was evicted: repeat request missed the cache")
	}
}

// TestPoolEvictionIsLRUAndDeterministic: the victim is always the
// least-recently-used completed entry, on every run.
func TestPoolEvictionIsLRUAndDeterministic(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 5; round++ {
		pool := NewPool(2)
		// A then B fill the pool; touching A makes B the LRU entry.
		for _, s := range []uint64{1, 2, 1} {
			if _, err := pool.Projector(ctx, tgt, backend.DefaultName, s, pcie.Pinned); err != nil {
				t.Fatal(err)
			}
		}
		// C evicts exactly B.
		if _, err := pool.Projector(ctx, tgt, backend.DefaultName, 3, pcie.Pinned); err != nil {
			t.Fatal(err)
		}
		if got := pool.Evictions(); got != 1 {
			t.Fatalf("round %d: evictions = %d, want 1", round, got)
		}
		// A must still be cached (hit); B must be gone (miss).
		hits, misses := pool.Hits(), pool.Misses()
		if _, err := pool.Projector(ctx, tgt, backend.DefaultName, 1, pcie.Pinned); err != nil {
			t.Fatal(err)
		}
		if pool.Hits() != hits+1 {
			t.Fatalf("round %d: recently-used entry A was evicted", round)
		}
		if _, err := pool.Projector(ctx, tgt, backend.DefaultName, 2, pcie.Pinned); err != nil {
			t.Fatal(err)
		}
		if pool.Misses() != misses+1 {
			t.Fatalf("round %d: LRU entry B survived eviction", round)
		}
	}
}

// TestRetriable pins which errors make a waiter retry the flight: only
// the owner's context cancellation/deadline, never real failures.
func TestRetriable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{context.Canceled, true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("calibrate: %w", context.Canceled), true},
		{errdefs.ErrMeasureTimeout, false},
		{errors.New("calibration failed"), false},
		{nil, false},
	} {
		if got := retriable(tc.err); got != tc.want {
			t.Errorf("retriable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestPoolBackendKeysNeverShareFlights: the backend name is a cache
// dimension. Concurrent requests for the same target, seed, and
// memory kind through different backends must each calibrate their
// own model — sharing a flight would hand an analytic projector to a
// caller who asked for fitted — while requests agreeing on the full
// key still singleflight. Run under -race: the clients hammer the
// pool concurrently.
func TestPoolBackendKeysNeverShareFlights(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	backends := backend.Default.Names()
	pool := NewPool(0)

	var mu sync.Mutex
	calibrated := make(map[string]int)
	pool.calibrateHook = func(k Key) {
		mu.Lock()
		calibrated[k.Backend]++
		mu.Unlock()
	}

	const perBackend = 4
	var wg sync.WaitGroup
	for _, bk := range backends {
		for i := 0; i < perBackend; i++ {
			wg.Add(1)
			go func(bk string) {
				defer wg.Done()
				p, err := pool.Projector(context.Background(), tgt, bk, seed, pcie.Pinned)
				if err != nil {
					t.Errorf("%s: %v", bk, err)
					return
				}
				if p.Backend() != bk {
					t.Errorf("asked for backend %q, projector reports %q", bk, p.Backend())
				}
			}(bk)
		}
	}
	wg.Wait()

	if pool.Misses() != int64(len(backends)) {
		t.Errorf("misses = %d, want %d (one flight per backend)", pool.Misses(), len(backends))
	}
	if want := int64(len(backends) * (perBackend - 1)); pool.Hits() != want {
		t.Errorf("hits = %d, want %d", pool.Hits(), want)
	}
	if pool.Len() != len(backends) {
		t.Errorf("cached entries = %d, want %d", pool.Len(), len(backends))
	}
	for _, bk := range backends {
		if calibrated[bk] != 1 {
			t.Errorf("backend %q calibrated %d times, want exactly 1", bk, calibrated[bk])
		}
		e, ok := pool.Cached(Key{Target: tgt.Name, Backend: bk, Kind: pcie.Pinned, Seed: seed})
		if !ok {
			t.Errorf("backend %q missing from the cache", bk)
			continue
		}
		if e.Fit.Backend != bk {
			t.Errorf("cached entry for %q carries a fit from %q", bk, e.Fit.Backend)
		}
	}
}

// armedPlan is the fault plan the armed-pool tests run under.
func armedPlan(t *testing.T) fault.Plan {
	t.Helper()
	plan, err := fault.ParsePlan("transient=0.02,outlier=0.01:8")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestArmedPoolWaiterRetriesAfterOwnerCancelled: the owner of a
// fault-armed flight is cancelled while its resilient calibration is
// under way. The calibration reports the cancellation wrapped in
// errdefs.ErrMeasureTimeout; the pool must still recognise it as the
// owner's cancellation, so the waiter becomes the new owner and
// succeeds and the key's breaker never counts it.
func TestArmedPoolWaiterRetriesAfterOwnerCancelled(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range backend.Default.Names() {
		t.Run(bk, func(t *testing.T) {
			pool := NewPoolWith(Config{Faults: armedPlan(t), BreakerThreshold: 1})
			entered := make(chan struct{})
			gate := make(chan struct{})
			var once sync.Once
			pool.calibrateHook = func(Key) {
				blocked := false
				once.Do(func() { blocked = true })
				if blocked {
					close(entered)
					<-gate
				}
			}

			ownerCtx, cancel := context.WithCancel(context.Background())
			ownerErr := make(chan error, 1)
			go func() {
				_, err := pool.Projector(ownerCtx, tgt, bk, seed, pcie.Pinned)
				ownerErr <- err
			}()
			<-entered
			waiterRes := make(chan error, 1)
			go func() {
				_, err := pool.Projector(context.Background(), tgt, bk, seed, pcie.Pinned)
				waiterRes <- err
			}()
			// Whether the waiter joins the flight before the owner fails
			// or arrives after, a failure counted against the key would
			// open its breaker (threshold 1) and fail the waiter.
			cancel()
			close(gate)

			if err := <-ownerErr; !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled owner returned %v, want one wrapping context.Canceled", err)
			}
			select {
			case err := <-waiterRes:
				if err != nil {
					t.Errorf("waiter inherited the owner's cancellation: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter hung after the owner was cancelled")
			}
			if open := pool.OpenBreakers(); len(open) != 0 {
				t.Errorf("owner cancellation opened breakers: %v", open)
			}
		})
	}
}

// TestArmedPoolMatchesFreshArmedMachine: for every backend, a
// fault-armed pool's miss and hit both evaluate byte-identically to
// core.New on a freshly armed machine, and armed entries are never
// exported or written through.
func TestArmedPoolMatchesFreshArmedMachine(t *testing.T) {
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	w := workload(t)
	plan := armedPlan(t)
	written := 0
	pool := NewPoolWith(Config{Faults: plan, OnCalibrated: func(context.Context, Entry) { written++ }})
	eval := func(p *core.Projector) []byte {
		t.Helper()
		rep, err := p.Evaluate(w)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Resilient {
			t.Error("armed pool served a non-resilient report")
		}
		data, err := report.JSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, bk := range backend.Default.Names() {
		m := tgt.Machine(seed)
		m.ArmFaults(plan)
		fresh, err := core.New(context.Background(), m, core.Options{Backend: bk})
		if err != nil {
			t.Fatal(err)
		}
		want := eval(fresh)
		for _, what := range []string{"miss", "hit"} {
			p, err := pool.Projector(context.Background(), tgt, bk, seed, pcie.Pinned)
			if err != nil {
				t.Fatal(err)
			}
			if got := eval(p); !bytes.Equal(got, want) {
				t.Errorf("%s: pool %s diverged from a freshly armed machine", bk, what)
			}
		}
		if _, ok := pool.Cached(pool.Key(tgt.Name, bk, pcie.Pinned, seed)); !ok {
			t.Errorf("%s: armed key not cached under the plan fingerprint", bk)
		}
	}
	if got, want := pool.Misses(), int64(len(backend.Default.Names())); got != want {
		t.Errorf("misses = %d, want %d (one calibration per backend)", got, want)
	}
	if n := len(pool.Export()); n != 0 || written != 0 {
		t.Errorf("armed entries persisted: %d exported, %d written through", n, written)
	}
}
