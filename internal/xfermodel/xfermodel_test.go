package xfermodel

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"grophecy/internal/errdefs"
	"grophecy/internal/pcie"
	"grophecy/internal/stats"
	"grophecy/internal/units"
)

func calibrated(t *testing.T) (*pcie.Bus, BusModel) {
	t.Helper()
	bus := pcie.NewBus(pcie.DefaultConfig())
	bm, err := twoPoint(bus, DefaultCalibration())
	if err != nil {
		t.Fatalf("calibration failed: %v", err)
	}
	return bus, bm
}

func TestModelPredictLinear(t *testing.T) {
	m := Model{Alpha: 10e-6, Beta: 1e-9}
	if got, err := m.Predict(0); err != nil || got != 10e-6 {
		t.Errorf("Predict(0) = %v, %v", got, err)
	}
	if got, err := m.Predict(1000); err != nil || math.Abs(got-11e-6) > 1e-18 {
		t.Errorf("Predict(1000) = %v, %v, want 11us", got, err)
	}
}

func TestModelPredictRejectsNegative(t *testing.T) {
	if _, err := (Model{Alpha: 1, Beta: 1}).Predict(-1); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Fatalf("Predict(-1) err = %v, want ErrInvalidInput", err)
	}
}

func TestModelBandwidth(t *testing.T) {
	m := Model{Alpha: 10e-6, Beta: 4e-10}
	if got := m.Bandwidth(); math.Abs(got-2.5e9) > 1 {
		t.Errorf("Bandwidth = %v, want 2.5e9", got)
	}
	if !math.IsInf(Model{}.Bandwidth(), 1) {
		t.Error("zero-beta bandwidth should be +Inf")
	}
}

func TestModelString(t *testing.T) {
	m := Model{Alpha: 10e-6, Beta: 4e-10}
	if got := m.String(); got != "T(d) = 10.00us + d/2.50GB/s" {
		t.Errorf("String = %q", got)
	}
}

func TestModelValid(t *testing.T) {
	if (Model{}).Valid() {
		t.Error("zero model should be invalid")
	}
	if !(Model{Alpha: 1e-6, Beta: 1e-10}).Valid() {
		t.Error("plausible model should be valid")
	}
}

func TestDefaultCalibrationMatchesPaper(t *testing.T) {
	cfg := DefaultCalibration()
	if cfg.Runs != 10 {
		t.Errorf("Runs = %d, want 10", cfg.Runs)
	}
	if cfg.SmallSize != 1 {
		t.Errorf("SmallSize = %d, want 1", cfg.SmallSize)
	}
	if cfg.LargeSize != 512*units.MB {
		t.Errorf("LargeSize = %d, want 512MB", cfg.LargeSize)
	}
	if cfg.Kind != pcie.Pinned {
		t.Errorf("Kind = %v, want pinned", cfg.Kind)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default calibration invalid: %v", err)
	}
}

func TestCalibrationConfigValidate(t *testing.T) {
	bad := []CalibrationConfig{
		{Runs: 0, SmallSize: 1, LargeSize: 2, Kind: pcie.Pinned},
		{Runs: 1, SmallSize: 0, LargeSize: 2, Kind: pcie.Pinned},
		{Runs: 1, SmallSize: 4, LargeSize: 4, Kind: pcie.Pinned},
		{Runs: 1, SmallSize: 1, LargeSize: 2, Kind: pcie.MemoryKind(9)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCalibrateTwoPointRecoversBusParameters(t *testing.T) {
	bus, bm := calibrated(t)
	cfg := bus.Config()
	for d := 0; d < pcie.NumDirections; d++ {
		m := bm.Dir[d]
		// Alpha should be within noise (~15%) of the true setup
		// latency; beta within 2% of the true inverse bandwidth.
		trueAlpha := cfg.Pinned[d].SetupLatency
		if e := stats.ErrorMagnitude(m.Alpha, trueAlpha); e > 0.15 {
			t.Errorf("%v: alpha %v vs true %v (err %v)", pcie.Direction(d), m.Alpha, trueAlpha, e)
		}
		trueBeta := 1 / cfg.Pinned[d].Bandwidth
		if e := stats.ErrorMagnitude(m.Beta, trueBeta); e > 0.02 {
			t.Errorf("%v: beta %v vs true %v (err %v)", pcie.Direction(d), m.Beta, trueBeta, e)
		}
	}
}

func TestCalibrationMatchesPaperMagnitudes(t *testing.T) {
	// Paper §III-C: "alpha is on the order of 10us and the transfer
	// bandwidth (1/beta) is approximately 2.5 GB/s."
	_, bm := calibrated(t)
	for d := 0; d < pcie.NumDirections; d++ {
		m := bm.Dir[d]
		if m.Alpha < 5e-6 || m.Alpha > 25e-6 {
			t.Errorf("%v alpha = %v, want order of 10us", pcie.Direction(d), m.Alpha)
		}
		bw := m.Bandwidth()
		if bw < 2.0e9 || bw > 3.0e9 {
			t.Errorf("%v bandwidth = %v, want ~2.5GB/s", pcie.Direction(d), bw)
		}
	}
}

func TestCalibrationCostAccounting(t *testing.T) {
	_, bm := calibrated(t)
	if bm.CalibrationTransfers != 40 { // 2 sizes x 10 runs x 2 directions
		t.Errorf("CalibrationTransfers = %d, want 40", bm.CalibrationTransfers)
	}
	// Dominated by 20 transfers of 512MB at ~2.5GB/s: ~4s total.
	if bm.CalibrationCost < 2 || bm.CalibrationCost > 10 {
		t.Errorf("CalibrationCost = %v s, want a few seconds", bm.CalibrationCost)
	}
}

func TestCalibrateRejectsBadConfig(t *testing.T) {
	bus := pcie.NewBus(pcie.DefaultConfig())
	if _, err := twoPoint(bus, CalibrationConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := CalibrateLeastSquares(MeanSampler(bus, 0), CalibrationConfig{}, []int64{1, 2}); err == nil {
		t.Error("zero config accepted by least squares")
	}
	if _, err := CalibrateLeastSquares(MeanSampler(bus, 10), DefaultCalibration(), []int64{1}); err == nil {
		t.Error("single-point least squares accepted")
	}
	if _, err := CalibrateLeastSquares(MeanSampler(bus, 10), DefaultCalibration(), []int64{-1, 2}); err == nil {
		t.Error("negative sweep size accepted")
	}
}

func TestBusModelPredictRejectsBadDirection(t *testing.T) {
	_, bm := calibrated(t)
	if _, err := bm.Predict(pcie.Direction(5), 100); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Fatalf("bad direction err = %v, want ErrInvalidInput", err)
	}
}

func TestPredictionAccuracyMatchesFig4(t *testing.T) {
	// Reproduce the §V-A validation: sweep 1B..512MB, 10 runs per
	// size. Paper: max error 6.4% (H2D) / 3.3% (D2H); mean 2.0% /
	// 0.8%. Our simulated bus should land in the same regime: mean
	// under 5%, max under 15%, and near-zero error above 1MB.
	bus, bm := calibrated(t)
	sizes, err := PowerOfTwoSizes(1, 512*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Validate(bus, bm, sizes, 10)
	if err != nil {
		t.Fatal(err)
	}
	sums := SummarizeValidation(points)
	for _, s := range sums {
		if s.MeanErr > 0.05 {
			t.Errorf("%v mean error %v, want < 5%%", s.Dir, s.MeanErr)
		}
		if s.MaxErr > 0.15 {
			t.Errorf("%v max error %v, want < 15%%", s.Dir, s.MaxErr)
		}
	}
	for _, p := range points {
		if p.Size > units.MB && p.ErrMag > 0.02 {
			t.Errorf("%v %s: error %v should be ~0 above 1MB",
				p.Dir, units.FormatBytes(p.Size), p.ErrMag)
		}
	}
}

func TestErrorLargerAtSmallSizes(t *testing.T) {
	// Fig 4 shape: relative error decreases with size.
	bus, bm := calibrated(t)
	sizes, err := PowerOfTwoSizes(1, 512*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	points, err := Validate(bus, bm, sizes, 10)
	if err != nil {
		t.Fatal(err)
	}
	var small, large []float64
	for _, p := range points {
		if p.Size <= units.KB {
			small = append(small, p.ErrMag)
		} else if p.Size >= units.MB {
			large = append(large, p.ErrMag)
		}
	}
	if stats.Mean(small) <= stats.Mean(large) {
		t.Errorf("small-size mean error %v should exceed large-size %v",
			stats.Mean(small), stats.Mean(large))
	}
}

func TestLeastSquaresComparableToTwoPoint(t *testing.T) {
	cfg := pcie.DefaultConfig()
	busA := pcie.NewBus(cfg)
	busB := pcie.NewBus(cfg)
	two, err := twoPoint(busA, DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := PowerOfTwoSizes(1, 512*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := CalibrateLeastSquares(MeanSampler(busB, 10), DefaultCalibration(), sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Both should agree on beta within a couple percent; and LS must
	// be far more expensive to calibrate.
	for d := 0; d < pcie.NumDirections; d++ {
		if e := stats.ErrorMagnitude(ls.Dir[d].Beta, two.Dir[d].Beta); e > 0.03 {
			t.Errorf("%v: LS beta deviates %v from two-point", pcie.Direction(d), e)
		}
	}
	if ls.CalibrationTransfers <= two.CalibrationTransfers {
		t.Error("least squares should need more transfers than two-point")
	}
}

func TestPowerOfTwoSizes(t *testing.T) {
	sizes, err := PowerOfTwoSizes(1, 512*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 30 { // 2^0 .. 2^29
		t.Fatalf("len = %d, want 30", len(sizes))
	}
	if sizes[0] != 1 || sizes[len(sizes)-1] != 512*units.MB {
		t.Errorf("bounds = %d..%d", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[i-1]*2 {
			t.Errorf("sizes[%d] = %d not double of previous", i, sizes[i])
		}
	}
}

func TestPowerOfTwoSizesRejectsBadBounds(t *testing.T) {
	cases := []struct{ min, max int64 }{
		{0, 8}, {8, 4}, {3, 8}, {2, 12},
	}
	for _, c := range cases {
		if _, err := PowerOfTwoSizes(c.min, c.max); !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("PowerOfTwoSizes(%d,%d) err = %v, want ErrInvalidInput", c.min, c.max, err)
		}
	}
}

func TestValidateRejectsZeroRuns(t *testing.T) {
	bus, bm := calibrated(t)
	if _, err := Validate(bus, bm, []int64{1}, 0); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Fatalf("Validate with 0 runs err = %v, want ErrInvalidInput", err)
	}
}

func TestSummarizeValidationEmpty(t *testing.T) {
	sums := SummarizeValidation(nil)
	for d, s := range sums {
		if s.N != 0 || s.MeanErr != 0 || s.MaxErr != 0 {
			t.Errorf("dir %d: nonzero summary %+v for empty input", d, s)
		}
	}
}

func TestQuickPredictMonotonicInSize(t *testing.T) {
	_, bm := calibrated(t)
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		tx, errX := bm.Predict(pcie.HostToDevice, x)
		ty, errY := bm.Predict(pcie.HostToDevice, y)
		return errX == nil && errY == nil && tx <= ty
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPredictAdditivity(t *testing.T) {
	// Splitting one transfer into two always costs one extra alpha:
	// T(a)+T(b) == T(a+b) + alpha. This is why the paper notes that
	// batching small arrays together can help (§III-B).
	_, bm := calibrated(t)
	m := bm.Dir[pcie.HostToDevice]
	prop := func(a, b uint16) bool {
		ta, errA := m.Predict(int64(a))
		tb, errB := m.Predict(int64(b))
		tab, errAB := m.Predict(int64(a) + int64(b))
		return errA == nil && errB == nil && errAB == nil &&
			math.Abs((ta+tb)-(tab+m.Alpha)) < 1e-15
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPiecewiseBridgesInvertedKnot: a knot measured no slower than its
// left neighbour is bridged, so the fit passes through every kept knot,
// stays continuous, and never drops one byte past the inverted knot.
func TestPiecewiseBridgesInvertedKnot(t *testing.T) {
	cfg := DefaultCalibration()
	knots := DefaultPiecewiseGrid(cfg)
	times := map[int64]float64{knots[0]: 10e-6, knots[1]: 9e-6, knots[2]: 30e-6, knots[3]: 1e-3, knots[4]: 0.1}
	sample := func(_ pcie.Direction, _ pcie.MemoryKind, size int64) (Point, error) {
		return Point{Time: times[size], Cost: times[size], Transfers: 1}, nil
	}
	pm, err := CalibratePiecewise(sample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seg := pm.Dir[pcie.HostToDevice]
	if seg[0] != seg[1] {
		t.Errorf("segments around the inverted knot differ: %+v vs %+v", seg[0], seg[1])
	}
	for _, k := range []int64{knots[0], knots[2], knots[3], knots[4]} {
		got, err := pm.Predict(pcie.HostToDevice, k)
		if err != nil || math.Abs(got-times[k]) > 1e-12*times[k] {
			t.Errorf("Predict(%d) = %v, %v; want the knot's mean %v", k, got, err, times[k])
		}
	}
	at, _ := pm.Predict(pcie.HostToDevice, knots[1])
	past, _ := pm.Predict(pcie.HostToDevice, knots[1]+1)
	if past < at {
		t.Errorf("Predict(%d) = %v drops below Predict(%d) = %v", knots[1]+1, past, knots[1], at)
	}
}
