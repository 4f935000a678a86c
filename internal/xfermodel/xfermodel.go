// Package xfermodel implements the paper's first contribution: a
// simple, accurate empirical model of CPU<->GPU transfer time over the
// PCIe bus (§III-C).
//
// The model is linear in the transfer size d:
//
//	T(d) = alpha + beta*d                          (Equation 1)
//
// where alpha is the fixed latency of sending the first byte and beta
// is the per-byte cost (the inverse of the transfer bandwidth). The
// two parameters are derived from only two measurements on the target
// system:
//
//   - alpha = mean time of a 1-byte transfer over 10 runs,
//   - beta  = mean time of a 512 MB transfer over 10 runs, divided by
//     512 MB.
//
// Each direction (CPU-to-GPU, GPU-to-CPU) gets its own parameters,
// since real links are mildly asymmetric. GROPHECY++ assumes pinned
// host memory throughout (it is faster in all typical use cases,
// §III-C); the calibration kind is configurable for the pageable
// ablation.
//
// CalibrateLeastSquares is the ablation described in DESIGN.md §5: an
// ordinary least-squares fit over a full power-of-two sweep. It needs
// dozens of measurements instead of two and, as the benchmarks show,
// buys almost nothing — which is the point the paper makes by choosing
// the two-point scheme.
package xfermodel

import (
	"fmt"
	"math"

	"grophecy/internal/errdefs"
	"grophecy/internal/metrics"
	"grophecy/internal/pcie"
	"grophecy/internal/stats"
	"grophecy/internal/units"
)

// Transfer-model instruments.
var (
	mPredictions = metrics.Default.MustCounter("xfermodel_predictions_total",
		"transfer-time predictions served by calibrated models")
	mCalibrations = metrics.Default.MustCounter("xfermodel_calibrations_total",
		"bus calibrations performed (all schemes)")
)

// Model predicts the transfer time of one direction of the bus.
type Model struct {
	// Alpha is the fixed per-transfer latency in seconds.
	Alpha float64
	// Beta is the per-byte transfer cost in seconds/byte.
	Beta float64
}

// Predict returns the modeled transfer time in seconds for size
// bytes. Sizes come from workload data, so a negative size is
// reported as errdefs.ErrInvalidInput rather than a panic (error
// policy: see internal/errdefs).
func (m Model) Predict(size int64) (float64, error) {
	if size < 0 {
		return 0, errdefs.Invalidf("xfermodel: negative transfer size %d", size)
	}
	return m.Alpha + m.Beta*float64(size), nil
}

// Bandwidth returns the asymptotic bandwidth 1/Beta in bytes/second,
// or +Inf when Beta is zero.
func (m Model) Bandwidth() float64 {
	if m.Beta == 0 {
		return math.Inf(1)
	}
	return 1 / m.Beta
}

// String renders the model parameters in the units the paper quotes
// (alpha in microseconds, bandwidth in GB/s).
func (m Model) String() string {
	return fmt.Sprintf("T(d) = %.2fus + d/%.2fGB/s", m.Alpha/units.Microsecond, m.Bandwidth()/1e9)
}

// Valid reports whether the parameters are physically plausible.
func (m Model) Valid() bool {
	return m.Alpha > 0 && m.Beta > 0
}

// BusModel holds one Model per transfer direction plus provenance of
// the calibration.
type BusModel struct {
	// Dir is indexed by pcie.Direction.
	Dir [pcie.NumDirections]Model
	// Kind is the host memory kind the model was calibrated for.
	Kind pcie.MemoryKind
	// CalibrationCost is the simulated wall-clock time spent on the
	// calibration transfers, in seconds. Reported so users can see
	// that the two-point scheme is cheap.
	CalibrationCost float64
	// CalibrationTransfers is the number of transfers performed.
	CalibrationTransfers int
}

// Predict returns the modeled time for one transfer. Invalid
// directions and sizes yield errdefs.ErrInvalidInput.
func (bm BusModel) Predict(dir pcie.Direction, size int64) (float64, error) {
	if !dir.Valid() {
		return 0, errdefs.Invalidf("xfermodel: invalid direction %d", dir)
	}
	mPredictions.Inc()
	return bm.Dir[dir].Predict(size)
}

// Valid reports whether both directional models are plausible.
func (bm BusModel) Valid() bool {
	return bm.Dir[pcie.HostToDevice].Valid() && bm.Dir[pcie.DeviceToHost].Valid()
}

// CalibrationConfig controls how a model is derived from a bus.
type CalibrationConfig struct {
	// Runs is how many transfers are averaged per measurement point.
	// The paper uses 10 (§III-C).
	Runs int
	// SmallSize is the size used to measure alpha. The paper uses a
	// single byte.
	SmallSize int64
	// LargeSize is the size used to measure beta. The paper uses
	// 512 MB, chosen "rather arbitrarily; any size larger than a few
	// megabytes would be sufficient" (footnote 5).
	LargeSize int64
	// Kind is the host memory kind to calibrate for.
	Kind pcie.MemoryKind
	// Sizes, when non-empty, is an explicit ascending sample grid for
	// the grid-based calibration schemes (least-squares, piecewise).
	// The two-point scheme ignores it. Empty means each scheme derives
	// its own default grid from [SmallSize, LargeSize], so backends
	// can request a custom grid without forking the calibration path.
	Sizes []int64
}

// DefaultCalibration returns the paper's calibration settings: 10
// runs, 1 B and 512 MB points, pinned memory.
func DefaultCalibration() CalibrationConfig {
	return CalibrationConfig{
		Runs:      10,
		SmallSize: 1,
		LargeSize: 512 * units.MB,
		Kind:      pcie.Pinned,
	}
}

// Validate reports whether the calibration settings make sense.
func (c CalibrationConfig) Validate() error {
	if c.Runs <= 0 {
		return errdefs.Invalidf("xfermodel: calibration needs at least one run")
	}
	if c.SmallSize <= 0 {
		return errdefs.Invalidf("xfermodel: small calibration size must be positive")
	}
	if c.LargeSize <= c.SmallSize {
		return errdefs.Invalidf("xfermodel: large calibration size must exceed small size")
	}
	if !c.Kind.Valid() {
		return errdefs.Invalidf("xfermodel: invalid memory kind %d", c.Kind)
	}
	for i, s := range c.Sizes {
		if s <= 0 {
			return errdefs.Invalidf("xfermodel: non-positive sample size %d in grid", s)
		}
		if i > 0 && s <= c.Sizes[i-1] {
			return errdefs.Invalidf("xfermodel: sample grid must be strictly ascending (%d after %d)",
				s, c.Sizes[i-1])
		}
	}
	return nil
}

// Grid returns the effective sample grid for grid-based calibration
// schemes: the explicit Sizes when set, otherwise def (which schemes
// derive from [SmallSize, LargeSize]).
func (c CalibrationConfig) Grid(def []int64) []int64 {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	return def
}

// Point is one measured calibration point.
type Point struct {
	// Time is the estimated time of one transfer, in seconds.
	Time float64
	// Cost is the simulated bus time the estimate took, in seconds.
	Cost float64
	// Transfers is how many transfers the estimate observed.
	Transfers int
}

// Sampler measures one calibration point under some measurement
// protocol: MeanSampler is the paper's raw mean, RobustSampler the
// resilient meter. Every calibration scheme (two-point, least-squares,
// piecewise) takes one, so every backend honours whichever protocol
// its machine selects.
type Sampler func(dir pcie.Direction, kind pcie.MemoryKind, size int64) (Point, error)

// MeanSampler is the paper's protocol: the arithmetic mean of runs
// raw transfers on bus.
func MeanSampler(bus *pcie.Bus, runs int) Sampler {
	return func(dir pcie.Direction, kind pcie.MemoryKind, size int64) (Point, error) {
		mean, err := bus.MeasureMean(dir, kind, size, runs)
		if err != nil {
			return Point{}, err
		}
		return Point{Time: mean, Cost: float64(runs) * mean, Transfers: runs}, nil
	}
}

// CalibrateLeastSquares derives a BusModel by measuring every size in
// sizes through sample and fitting T = alpha + beta*d by ordinary
// least squares, per direction. It is the expensive ablation against
// CalibrateTwoPoint.
//
// Note that an unweighted fit over a power-of-two sweep is dominated
// by the largest sizes, so its alpha can come out slightly negative;
// in that case alpha is clamped to the smallest measured time to keep
// the model physical.
func CalibrateLeastSquares(sample Sampler, cfg CalibrationConfig, sizes []int64) (BusModel, error) {
	if err := cfg.Validate(); err != nil {
		return BusModel{}, err
	}
	if len(sizes) < 2 {
		return BusModel{}, errdefs.Invalidf("xfermodel: least-squares calibration needs at least two sizes")
	}
	bm := BusModel{Kind: cfg.Kind}
	for d := 0; d < pcie.NumDirections; d++ {
		dir := pcie.Direction(d)
		xs := make([]float64, len(sizes))
		ys := make([]float64, len(sizes))
		minTime := 0.0
		for i, size := range sizes {
			if size < 0 {
				return BusModel{}, errdefs.Invalidf("xfermodel: negative sweep size %d", size)
			}
			pt, err := sample(dir, cfg.Kind, size)
			if err != nil {
				return BusModel{}, fmt.Errorf("xfermodel: %v sweep point %d: %w", dir, size, err)
			}
			xs[i] = float64(size)
			ys[i] = pt.Time
			if i == 0 || pt.Time < minTime {
				minTime = pt.Time
			}
			bm.CalibrationCost += pt.Cost
			bm.CalibrationTransfers += pt.Transfers
		}
		fit, err := stats.FitLine(xs, ys)
		if err != nil {
			return BusModel{}, fmt.Errorf("xfermodel: %v fit failed: %w", dir, err)
		}
		alpha := fit.Intercept
		if alpha <= 0 {
			alpha = minTime
		}
		bm.Dir[d] = Model{Alpha: alpha, Beta: fit.Slope}
	}
	if !bm.Valid() {
		return BusModel{}, fmt.Errorf("%w: least-squares calibration produced implausible parameters",
			errdefs.ErrCalibrationFailed)
	}
	mCalibrations.Inc()
	return bm, nil
}

// PowerOfTwoSizes returns all powers of two from min to max inclusive
// (min and max are rounded to themselves; both must already be powers
// of two). This is the sweep used by the paper's validation (1 B to
// 512 MB, §V-A). Bounds come from CLI flags and experiment tables, so
// invalid ones yield errdefs.ErrInvalidInput.
func PowerOfTwoSizes(min, max int64) ([]int64, error) {
	if min <= 0 || max < min {
		return nil, errdefs.Invalidf("xfermodel: invalid size range [%d, %d]", min, max)
	}
	if min&(min-1) != 0 || max&(max-1) != 0 {
		return nil, errdefs.Invalidf("xfermodel: size bounds %d, %d must be powers of two", min, max)
	}
	var sizes []int64
	for s := min; s <= max; s <<= 1 {
		sizes = append(sizes, s)
		if s > max>>1 {
			break // avoid overflow on the final shift
		}
	}
	return sizes, nil
}

// ValidationPoint records one size/direction comparison between the
// model and fresh measurements.
type ValidationPoint struct {
	Dir       pcie.Direction
	Size      int64
	Predicted float64 // seconds
	Measured  float64 // seconds, mean over the validation runs
	// ErrMag is |Predicted-Measured|/Measured, the paper's error
	// magnitude, as a fraction.
	ErrMag float64
}

// Validate measures every size in sizes in both directions (runs
// transfers each, arithmetic mean) and compares against the model,
// reproducing the paper's §V-A validation sweep.
func Validate(bus *pcie.Bus, bm BusModel, sizes []int64, runs int) ([]ValidationPoint, error) {
	if runs <= 0 {
		return nil, errdefs.Invalidf("xfermodel: Validate needs at least one run, got %d", runs)
	}
	points := make([]ValidationPoint, 0, len(sizes)*pcie.NumDirections)
	for d := 0; d < pcie.NumDirections; d++ {
		dir := pcie.Direction(d)
		for _, size := range sizes {
			measured, err := bus.MeasureMean(dir, bm.Kind, size, runs)
			if err != nil {
				return nil, err
			}
			predicted, err := bm.Predict(dir, size)
			if err != nil {
				return nil, err
			}
			points = append(points, ValidationPoint{
				Dir:       dir,
				Size:      size,
				Predicted: predicted,
				Measured:  measured,
				ErrMag:    stats.ErrorMagnitude(predicted, measured),
			})
		}
	}
	return points, nil
}

// SummarizeValidation aggregates validation points per direction,
// returning the mean and max error magnitude (the numbers quoted for
// Fig 4: mean 2.0%/0.8%, max 6.4%/3.3%).
type ValidationSummary struct {
	Dir     pcie.Direction
	MeanErr float64
	MaxErr  float64
	N       int
}

// SummarizeValidation computes per-direction summaries of points.
func SummarizeValidation(points []ValidationPoint) [pcie.NumDirections]ValidationSummary {
	var out [pcie.NumDirections]ValidationSummary
	for d := 0; d < pcie.NumDirections; d++ {
		out[d].Dir = pcie.Direction(d)
	}
	for _, p := range points {
		s := &out[p.Dir]
		s.N++
		s.MeanErr += p.ErrMag
		if p.ErrMag > s.MaxErr {
			s.MaxErr = p.ErrMag
		}
	}
	for d := range out {
		if out[d].N > 0 {
			out[d].MeanErr /= float64(out[d].N)
		}
	}
	return out
}
