package xfermodel

import (
	"context"
	"errors"
	"math"
	"testing"

	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/measure"
	"grophecy/internal/pcie"
	"grophecy/internal/units"
)

func newMeter(t *testing.T) *measure.Meter {
	t.Helper()
	m, err := measure.New(measure.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// twoPoint is the paper's calibration: the two-point scheme over raw
// 10-run means on bus.
func twoPoint(bus *pcie.Bus, cfg CalibrationConfig) (BusModel, error) {
	return CalibrateTwoPoint(context.Background(), MeanSampler(bus, cfg.Runs), cfg, nil)
}

// resilient is the two-point scheme over meter's robust estimates of
// src, returning the health record both the sampler and the ladder
// write to.
func resilient(ctx context.Context, meter *measure.Meter, src measure.Source, cfg CalibrationConfig) (BusModel, *Health, error) {
	h := &Health{}
	bm, err := CalibrateTwoPoint(ctx, RobustSampler(ctx, meter, src, h), cfg, h)
	return bm, h, err
}

func TestCalibrateResilientCleanMatchesTwoPoint(t *testing.T) {
	cfg := DefaultCalibration()
	ref, err := twoPoint(pcie.NewBus(pcie.DefaultConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	bm, h, err := resilient(context.Background(), newMeter(t),
		pcie.NewBus(pcie.DefaultConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded() {
		t.Fatalf("clean bus degraded: %v", h.Degradations)
	}
	for d := 0; d < pcie.NumDirections; d++ {
		// Different estimator and sample counts, same underlying bus:
		// parameters should agree within the bus's noise level.
		if rel := math.Abs(bm.Dir[d].Alpha-ref.Dir[d].Alpha) / ref.Dir[d].Alpha; rel > 0.10 {
			t.Errorf("%v alpha off by %.1f%%: %v vs %v",
				pcie.Direction(d), 100*rel, bm.Dir[d].Alpha, ref.Dir[d].Alpha)
		}
		if rel := math.Abs(bm.Dir[d].Beta-ref.Dir[d].Beta) / ref.Dir[d].Beta; rel > 0.10 {
			t.Errorf("%v beta off by %.1f%%: %v vs %v",
				pcie.Direction(d), 100*rel, bm.Dir[d].Beta, ref.Dir[d].Beta)
		}
	}
}

func TestCalibrateResilientUnderOutliers(t *testing.T) {
	cfg := DefaultCalibration()
	ref, err := twoPoint(pcie.NewBus(pcie.DefaultConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 1% transients plus a 5% chance of 10x outlier bursts — the
	// ISSUE's acceptance scenario. The robust estimator must keep the
	// fit within a bounded band of the clean one.
	plan := fault.Plan{
		TransientProb: 0.01,
		OutlierProb:   0.05, OutlierScale: 10, OutlierBurst: 2,
		Seed: 99,
	}
	src := fault.NewBus(pcie.NewBus(pcie.DefaultConfig()), plan)
	bm, h, err := resilient(context.Background(), newMeter(t), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < pcie.NumDirections; d++ {
		if h.Conservative[d] {
			t.Fatalf("%v fell back to conservative under mild faults: %v",
				pcie.Direction(d), h.Degradations)
		}
		if rel := math.Abs(bm.Dir[d].Beta-ref.Dir[d].Beta) / ref.Dir[d].Beta; rel > 0.25 {
			t.Errorf("%v beta off by %.1f%% under outliers (band is 25%%)",
				pcie.Direction(d), 100*rel)
		}
		// Alpha is a ~microsecond quantity measured through the same
		// faulty stream; allow a wider band but it must stay positive
		// and the model plausible.
		if !bm.Dir[d].Valid() {
			t.Errorf("%v model invalid: %v", pcie.Direction(d), bm.Dir[d])
		}
	}
}

// deadSource fails every transfer permanently.
type deadSource struct{}

func (deadSource) Transfer(pcie.Direction, pcie.MemoryKind, int64) (float64, error) {
	return 0, errors.New("bus unreachable")
}

func TestCalibrateResilientAllFailIsConservative(t *testing.T) {
	bm, h, err := resilient(context.Background(), newMeter(t),
		deadSource{}, DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	want := ConservativeModel()
	for d := 0; d < pcie.NumDirections; d++ {
		if !h.Conservative[d] {
			t.Errorf("%v not flagged conservative", pcie.Direction(d))
		}
		if bm.Dir[d] != want {
			t.Errorf("%v model = %v, want conservative default %v",
				pcie.Direction(d), bm.Dir[d], want)
		}
	}
	if !h.Degraded() || len(h.Degradations) != pcie.NumDirections {
		t.Errorf("degradations = %v, want one per direction", h.Degradations)
	}
}

// flakySizeSource fails permanently for one exact size, passing
// everything else through to a real bus.
type flakySizeSource struct {
	bus     *pcie.Bus
	badSize int64
}

func (s flakySizeSource) Transfer(dir pcie.Direction, kind pcie.MemoryKind, size int64) (float64, error) {
	if size == s.badSize {
		return 0, errors.New("transfer wedged at this size")
	}
	return s.bus.Transfer(dir, kind, size)
}

func TestCalibrateResilientLadderFallback(t *testing.T) {
	cfg := DefaultCalibration()
	src := flakySizeSource{bus: pcie.NewBus(pcie.DefaultConfig()), badSize: cfg.LargeSize}
	bm, h, err := resilient(context.Background(), newMeter(t), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Degraded() {
		t.Fatal("ladder fallback not recorded")
	}
	for d := 0; d < pcie.NumDirections; d++ {
		if h.Conservative[d] {
			t.Errorf("%v went conservative instead of walking the ladder", pcie.Direction(d))
		}
		if !bm.Dir[d].Valid() {
			t.Errorf("%v model invalid after fallback: %v", pcie.Direction(d), bm.Dir[d])
		}
	}
	// The fallback size must be the first halving, 256 MB.
	found := false
	for _, note := range h.Degradations {
		if want := units.FormatBytes(cfg.LargeSize / 2); len(note) > 0 &&
			containsAll(note, "large point", "fell back", want) {
			found = true
		}
	}
	if !found {
		t.Errorf("no large-point fallback note in %v", h.Degradations)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCalibrateResilientCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := resilient(ctx, newMeter(t),
		pcie.NewBus(pcie.DefaultConfig()), DefaultCalibration())
	if !errors.Is(err, errdefs.ErrMeasureTimeout) {
		t.Fatalf("err = %v, want ErrMeasureTimeout", err)
	}
}

func TestCalibrateResilientRejectsNil(t *testing.T) {
	if _, err := CalibrateTwoPoint(context.Background(), nil,
		DefaultCalibration(), &Health{}); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Errorf("nil sampler: err = %v, want ErrInvalidInput", err)
	}
}
