package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"grophecy/internal/backend"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/pcie"
	"grophecy/internal/store"
	"grophecy/internal/target"
	"grophecy/internal/xfermodel"
)

// fakeClock freezes the breaker's wall clock so open-window expiry is
// driven by the test, not by sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestBreakerOpensAndFailsFast: after BreakerThreshold consecutive
// flight failures the key rejects with errdefs.ErrCircuitOpen without
// running a calibration; after the open window a half-open probe is
// admitted, and a failed probe re-opens immediately.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	pool := NewPoolWith(Config{
		BreakerThreshold: 2,
		BreakerOpenFor:   30 * time.Second,
	})
	pool.now = clock.now
	bad := panickingTarget()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := pool.Projector(ctx, bad, backend.DefaultName, seed, pcie.Pinned); !errors.Is(err, errdefs.ErrPanic) {
			t.Fatalf("failure %d: %v, want ErrPanic", i, err)
		}
	}
	if got := pool.OpenBreakers(); len(got) != 1 || got[0].Target != bad.Name {
		t.Fatalf("OpenBreakers = %v, want the one bad key", got)
	}

	// Open: fail fast, no new calibration.
	before := pool.Misses()
	if _, err := pool.Projector(ctx, bad, backend.DefaultName, seed, pcie.Pinned); !errors.Is(err, errdefs.ErrCircuitOpen) {
		t.Fatalf("open breaker: %v, want ErrCircuitOpen", err)
	}
	if pool.Misses() != before {
		t.Error("open breaker still ran a calibration")
	}

	// Still inside the window: still open.
	clock.advance(29 * time.Second)
	if _, err := pool.Projector(ctx, bad, backend.DefaultName, seed, pcie.Pinned); !errors.Is(err, errdefs.ErrCircuitOpen) {
		t.Fatalf("inside window: %v, want ErrCircuitOpen", err)
	}

	// Window passed: the next caller is the half-open probe — it runs
	// a real calibration, which still panics, re-opening the breaker.
	clock.advance(2 * time.Second)
	if _, err := pool.Projector(ctx, bad, backend.DefaultName, seed, pcie.Pinned); !errors.Is(err, errdefs.ErrPanic) {
		t.Fatalf("half-open probe: %v, want ErrPanic", err)
	}
	if _, err := pool.Projector(ctx, bad, backend.DefaultName, seed, pcie.Pinned); !errors.Is(err, errdefs.ErrCircuitOpen) {
		t.Fatalf("after failed probe: %v, want ErrCircuitOpen (re-opened)", err)
	}
}

// TestBreakerClosesOnSuccessfulProbe: a half-open probe that succeeds
// closes the breaker and the key serves normally again.
func TestBreakerClosesOnSuccessfulProbe(t *testing.T) {
	chaos, err := fault.ParseChaos("cal-err=1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	pool := NewPoolWith(Config{
		BreakerThreshold: 2,
		BreakerOpenFor:   10 * time.Second,
		Retries:          1, // no retry: each transient failure settles its flight
		Chaos:            chaos,
	})
	pool.now = clock.now
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := pool.Projector(ctx, tgt, backend.DefaultName, seed, pcie.Pinned); !errdefs.IsTransient(err) {
			t.Fatalf("failure %d: %v, want transient", i, err)
		}
	}
	if _, err := pool.Projector(ctx, tgt, backend.DefaultName, seed, pcie.Pinned); !errors.Is(err, errdefs.ErrCircuitOpen) {
		t.Fatalf("tripped breaker: %v, want ErrCircuitOpen", err)
	}

	// Heal the dependency and let the window pass: the probe succeeds,
	// the breaker closes, and the calibration is cached as usual.
	chaos.CalErrProb = 0
	clock.advance(11 * time.Second)
	if _, err := pool.Projector(ctx, tgt, backend.DefaultName, seed, pcie.Pinned); err != nil {
		t.Fatalf("successful probe: %v", err)
	}
	if n := len(pool.OpenBreakers()); n != 0 {
		t.Errorf("OpenBreakers = %d after successful probe, want 0", n)
	}
	hits := pool.Hits()
	if _, err := pool.Projector(ctx, tgt, backend.DefaultName, seed, pcie.Pinned); err != nil {
		t.Fatalf("post-probe hit: %v", err)
	}
	if pool.Hits() != hits+1 {
		t.Error("probe result was not cached")
	}
}

// TestTransientRetryRecovers: transient chaos failures are retried
// inside the one flight, so the caller sees success and a single miss.
func TestTransientRetryRecovers(t *testing.T) {
	chaos, err := fault.ParseChaos("cal-err=0.5,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolWith(Config{
		Retries: 8,
		Backoff: time.Millisecond,
		Chaos:   chaos,
	})
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned); err != nil {
		t.Fatalf("retried calibration still failed: %v", err)
	}
	if pool.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (retries share the flight)", pool.Misses())
	}
}

// TestTransientRetryExhausts: when every attempt fails the flight
// surfaces the transient error after the attempt budget, not a hang.
func TestTransientRetryExhausts(t *testing.T) {
	chaos, err := fault.ParseChaos("cal-err=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolWith(Config{
		Retries: 3,
		Backoff: time.Millisecond,
		Chaos:   chaos,
	})
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned); !errdefs.IsTransient(err) {
		t.Fatalf("exhausted retries: %v, want transient", err)
	}
	if pool.Len() != 0 {
		t.Error("failed flight was cached")
	}
}

// TestWatchdogTimesOutStuckCalibration: injected latency past the
// per-attempt watchdog surfaces as errdefs.ErrMeasureTimeout — a
// permanent, non-retried classification — while the caller's own
// context stays live.
func TestWatchdogTimesOutStuckCalibration(t *testing.T) {
	chaos, err := fault.ParseChaos("cal-latency=5s,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPoolWith(Config{
		CalTimeout: 10 * time.Millisecond,
		Chaos:      chaos,
	})
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned)
	if !errors.Is(err, errdefs.ErrMeasureTimeout) {
		t.Fatalf("stuck calibration: %v, want ErrMeasureTimeout", err)
	}
	if errdefs.Retryable(err) {
		t.Error("watchdog expiry classified retryable")
	}
	if retriable(err) {
		t.Error("watchdog expiry would make waiters spin")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("watchdog took %s, want ~10ms", elapsed)
	}
}

// TestExportWarmRoundTrip is the persistence contract end to end in
// memory: a warmed pool serves the exported key with zero misses and
// a report byte-identical to a fresh calibration.
func TestExportWarmRoundTrip(t *testing.T) {
	w := workload(t)
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	want := freshJSON(t, tgt, w)

	a := NewPool(0)
	if !bytes.Equal(pooledJSON(t, a, tgt, w), want) {
		t.Fatal("source pool diverged from fresh calibration")
	}
	entries := a.Export()
	if len(entries) != 1 {
		t.Fatalf("Export = %d entries, want 1", len(entries))
	}

	b := NewPool(0)
	if n := b.Warm(entries); n != 1 {
		t.Fatalf("Warm = %d, want 1", n)
	}
	if !bytes.Equal(pooledJSON(t, b, tgt, w), want) {
		t.Error("warmed pool diverged from fresh calibration")
	}
	if b.Misses() != 0 || b.Hits() != 1 {
		t.Errorf("warmed pool misses=%d hits=%d, want 0 and 1", b.Misses(), b.Hits())
	}
}

// TestWarmSkipsInvalidAndRespectsBound: damaged entries never enter
// the pool, duplicates are kept-first, and warming fills only up to
// the configured bound. Damage covers the key, the fit's backend, a
// payload that does not decode, and a stored model that is not the
// one the fit decodes to.
func TestWarmSkipsInvalidAndRespectsBound(t *testing.T) {
	valid := func(name string, s uint64) store.Entry {
		var bm xfermodel.BusModel
		bm.Kind = pcie.Pinned
		bm.CalibrationCost = 0.25
		bm.CalibrationTransfers = 40
		bm.Dir[pcie.HostToDevice] = xfermodel.Model{Alpha: 1e-5, Beta: 5e-10}
		bm.Dir[pcie.DeviceToHost] = xfermodel.Model{Alpha: 1e-5, Beta: 5e-10}
		payload, err := json.Marshal(bm)
		if err != nil {
			t.Fatal(err)
		}
		return store.Entry{
			Key:   store.Key{Target: name, Backend: backend.DefaultName, Kind: pcie.Pinned, Seed: s},
			Model: bm,
			Fit:   backend.Fit{Backend: backend.DefaultName, Kind: pcie.Pinned, Payload: payload},
		}
	}
	bad := valid("bad", 1)
	bad.Model.Dir[pcie.HostToDevice].Alpha = -1
	otherModel := valid("other-model", 1)
	otherModel.Model.Dir[pcie.HostToDevice].Alpha = 2e-5
	undecodable := valid("undecodable", 1)
	undecodable.Fit.Payload = json.RawMessage(`"not a bus model"`)
	noName := valid("", 1)
	wrongBackend := valid("mismatch", 1)
	wrongBackend.Key.Backend = "fitted"

	pool := NewPoolWith(Config{MaxEntries: 2})
	n := pool.Warm([]store.Entry{bad, otherModel, undecodable, noName, wrongBackend,
		valid("a", 1), valid("a", 1), valid("b", 1), valid("c", 1)})
	if n != 2 {
		t.Errorf("Warm = %d, want 2 (invalid skipped, bound respected)", n)
	}
	var got []string
	for _, e := range pool.Export() {
		got = append(got, e.Key.Target)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("warmed keys = %q, want %q", got, want)
	}
}

// TestOnCalibratedWriteThrough: every completed calibration reaches
// the hook, and what it delivers matches Export.
func TestOnCalibratedWriteThrough(t *testing.T) {
	got := make(chan store.Entry, 1)
	pool := NewPoolWith(Config{OnCalibrated: func(_ context.Context, e store.Entry) { got <- e }})
	tgt, err := target.Lookup(target.DefaultName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Projector(context.Background(), tgt, backend.DefaultName, seed, pcie.Pinned); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		exported := pool.Export()
		if len(exported) != 1 || !reflect.DeepEqual(e, exported[0]) {
			t.Errorf("hook entry %+v != exported %+v", e, exported)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnCalibrated never fired")
	}
}

// TestBreakerStateStrings pins the observability names.
func TestBreakerStateStrings(t *testing.T) {
	for state, want := range map[breakerState]string{
		breakerClosed:   "closed",
		breakerOpen:     "open",
		breakerHalfOpen: "half-open",
		breakerState(9): "unknown",
	} {
		if got := state.String(); got != want {
			t.Errorf("breakerState(%d).String() = %q, want %q", state, got, want)
		}
	}
}

// TestKeyOrdering pins the deterministic export/listing order.
func TestKeyOrdering(t *testing.T) {
	ks := []Key{
		{Target: "b", Kind: pcie.Pinned, Seed: 1},
		{Target: "a", Kind: pcie.Pageable, Seed: 9},
		{Target: "a", Kind: pcie.Pinned, Seed: 2},
		{Target: "a", Kind: pcie.Pinned, Seed: 1},
	}
	sortKeys(ks)
	want := []Key{
		{Target: "a", Kind: pcie.Pinned, Seed: 1},
		{Target: "a", Kind: pcie.Pinned, Seed: 2},
		{Target: "a", Kind: pcie.Pageable, Seed: 9},
		{Target: "b", Kind: pcie.Pinned, Seed: 1},
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("sortKeys[%d] = %+v, want %+v", i, ks[i], want[i])
		}
	}
}
