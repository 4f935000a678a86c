package measure

import (
	"context"
	"errors"
	"math"
	"testing"

	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/pcie"
	"grophecy/internal/units"
)

// fixedCfg disables adaptation so sample counts are predictable.
func fixedCfg() Config {
	cfg := DefaultConfig()
	cfg.Runs = 10
	cfg.MaxRuns = 0
	cfg.ConvergeRel = 0
	cfg.Deadline = 0
	return cfg
}

func mustMeter(t *testing.T, cfg Config) *Meter {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// constSource yields a fixed sequence of values/errors, then repeats
// the last entry forever.
func seqSource(vals []float64, errs []error) func() (float64, error) {
	i := 0
	return func() (float64, error) {
		j := i
		if j >= len(vals) {
			j = len(vals) - 1
		}
		i++
		if errs != nil && errs[j] != nil {
			return 0, errs[j]
		}
		return vals[j], nil
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := []Config{
		{Runs: 0},
		{Runs: 10, MaxRuns: 5},
		{Runs: 10, TrimFrac: 0.5},
		{Runs: 10, TrimFrac: -0.1},
		{Runs: 10, MaxRetries: -1},
		{Runs: 10, BaseBackoff: -1},
		{Runs: 10, Deadline: -1},
		{Runs: 10, Estimator: Estimator(99)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("config %d: err = %v, want ErrInvalidInput", i, err)
		}
	}
}

func TestSampleRetriesTransients(t *testing.T) {
	cfg := fixedCfg()
	cfg.Runs = 3
	m := mustMeter(t, cfg)

	transient := errdefs.Transientf("flaky link")
	src := seqSource(
		[]float64{0, 1, 1, 0, 1},
		[]error{transient, nil, nil, transient, nil},
	)
	res, err := m.Sample(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 3 {
		t.Errorf("samples = %d, want 3", res.Samples)
	}
	if res.Retries != 2 {
		t.Errorf("retries = %d, want 2", res.Retries)
	}
	if res.Value != 1 {
		t.Errorf("value = %v, want 1", res.Value)
	}
	// Backoff must be charged to the simulated clock on top of the
	// 3 one-second observations.
	if res.SimTime <= 3 {
		t.Errorf("sim time %v does not include backoff", res.SimTime)
	}
}

func TestSampleExhaustsRetries(t *testing.T) {
	cfg := fixedCfg()
	cfg.MaxRetries = 2
	m := mustMeter(t, cfg)

	calls := 0
	_, err := m.Sample(context.Background(), func() (float64, error) {
		calls++
		return 0, errdefs.Transientf("always down")
	})
	if !errdefs.IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if calls != cfg.MaxRetries+1 {
		t.Errorf("sample called %d times, want %d", calls, cfg.MaxRetries+1)
	}
}

func TestSamplePermanentErrorNotRetried(t *testing.T) {
	m := mustMeter(t, fixedCfg())
	boom := errors.New("bus on fire")
	calls := 0
	_, err := m.Sample(context.Background(), func() (float64, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Errorf("permanent error retried %d times", calls-1)
	}
}

func TestSampleDeadlineReturnsPartialResult(t *testing.T) {
	cfg := fixedCfg()
	cfg.Runs = 10
	cfg.Deadline = 3.5 // seconds; each observation below costs 1s
	m := mustMeter(t, cfg)

	res, err := m.Sample(context.Background(), func() (float64, error) { return 1, nil })
	if !errors.Is(err, errdefs.ErrMeasureTimeout) {
		t.Fatalf("err = %v, want ErrMeasureTimeout", err)
	}
	if res.Samples == 0 || res.Samples >= 10 {
		t.Errorf("partial samples = %d, want in (0, 10)", res.Samples)
	}
	if res.Value != 1 {
		t.Errorf("partial estimate = %v, want 1", res.Value)
	}
}

func TestSampleContextCancellation(t *testing.T) {
	// The paper's fixed-count protocol checks ctx before every sample
	// too, and a measurement cancelled part way keeps its samples.
	for _, cfg := range []Config{fixedCfg(), {Runs: 10}} {
		for _, after := range []int{0, 3} {
			m := mustMeter(t, cfg)
			ctx, cancel := context.WithCancel(context.Background())
			if after == 0 {
				cancel()
			}
			n := 0
			res, err := m.Sample(ctx, func() (float64, error) {
				if n++; n == after {
					cancel()
				}
				return 1, nil
			})
			cancel()
			if !errors.Is(err, errdefs.ErrMeasureTimeout) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%+v, cancel after %d: err = %v, want ErrMeasureTimeout and context.Canceled", cfg, after, err)
			}
			if res.Samples != after {
				t.Errorf("%+v, cancel after %d: kept %d samples", cfg, after, res.Samples)
			}
		}
	}
}

func TestEstimators(t *testing.T) {
	// 10 samples with two gross outliers.
	vals := []float64{1, 1, 1, 1, 1, 1, 1, 1, 100, 100}
	cases := []struct {
		est     Estimator
		trim    float64
		want    float64
		trimmed int
	}{
		{Mean, 0, 20.8, 0},
		{TrimmedMean, 0.2, 1, 4},
		{Median, 0, 1, 0},
	}
	for _, tc := range cases {
		cfg := fixedCfg()
		cfg.Estimator = tc.est
		cfg.TrimFrac = tc.trim
		m := mustMeter(t, cfg)
		res, err := m.Sample(context.Background(), seqSource(vals, nil))
		if err != nil {
			t.Fatalf("%v: %v", tc.est, err)
		}
		if math.Abs(res.Value-tc.want) > 1e-9 {
			t.Errorf("%v: value = %v, want %v", tc.est, res.Value, tc.want)
		}
		if res.Trimmed != tc.trimmed {
			t.Errorf("%v: trimmed = %d, want %d", tc.est, res.Trimmed, tc.trimmed)
		}
	}
}

func TestAdaptiveSamplingConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 5
	cfg.MaxRuns = 50
	cfg.ConvergeRel = 0.05
	m := mustMeter(t, cfg)

	// Constant samples converge immediately at Runs.
	res, err := m.Sample(context.Background(), func() (float64, error) { return 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("constant samples did not converge")
	}
	if res.Samples != cfg.Runs {
		t.Errorf("samples = %d, want %d", res.Samples, cfg.Runs)
	}
}

func TestAdaptiveSamplingHitsMaxRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 5
	cfg.MaxRuns = 12
	cfg.ConvergeRel = 1e-9 // unattainably tight
	cfg.Deadline = 0
	m := mustMeter(t, cfg)

	alt := 0.0
	res, err := m.Sample(context.Background(), func() (float64, error) {
		alt = 3 - alt // alternate 3, 0, 3, 0 — never converges
		return alt, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("noisy samples reported converged")
	}
	if res.Samples != cfg.MaxRuns {
		t.Errorf("samples = %d, want MaxRuns %d", res.Samples, cfg.MaxRuns)
	}
}

func TestBackoffCapAndDeterminism(t *testing.T) {
	run := func() Result {
		cfg := fixedCfg()
		cfg.Runs = 1
		cfg.MaxRetries = 8
		cfg.BaseBackoff = 1e-3
		cfg.MaxBackoff = 4e-3
		cfg.JitterFrac = 0.25
		m := mustMeter(t, cfg)
		n := 0
		res, err := m.Sample(context.Background(), func() (float64, error) {
			n++
			if n <= 8 {
				return 0, errdefs.Transientf("flap %d", n)
			}
			return 0, nil // zero-cost observation: SimTime is pure backoff
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different results: %+v vs %+v", a, b)
	}
	if a.Retries != 8 {
		t.Fatalf("retries = %d, want 8", a.Retries)
	}
	// 8 backoffs, each at most MaxBackoff*(1+JitterFrac).
	if max := 8 * 4e-3 * 1.25; a.SimTime > max {
		t.Errorf("sim time %v exceeds backoff cap bound %v", a.SimTime, max)
	}
	if a.SimTime <= 0 {
		t.Error("no backoff charged")
	}
}

func TestMeasureTransferAgainstFaultyBus(t *testing.T) {
	plan := fault.Plan{TransientProb: 0.1, OutlierProb: 0.05, OutlierScale: 20, Seed: 11}
	bus := pcie.NewBus(pcie.DefaultConfig())
	src := fault.NewBus(bus, plan)
	m := mustMeter(t, DefaultConfig())

	res, err := m.MeasureTransfer(context.Background(), src, pcie.HostToDevice, pcie.Pinned, units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 10 {
		t.Errorf("samples = %d, want >= 10", res.Samples)
	}
	// The trimmed mean should sit near the clean transfer time even
	// with 20x outliers in the stream.
	clean, err := bus.BaseTime(pcie.HostToDevice, pcie.Pinned, units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > 3*clean {
		t.Errorf("robust estimate %v blown out vs clean %v", res.Value, clean)
	}
}
