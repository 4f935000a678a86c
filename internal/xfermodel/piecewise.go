// Piecewise transfer-time calibration: segmented α+β·d fits over a
// size grid.
//
// The paper's two-point model is deliberately global — one line per
// direction — and its own §III-C concedes the cost: pageable
// transfers are "mildly non-linear" at intermediate sizes (footnote
// 4), because the driver's bounce-buffer chunking and the small-
// upload command-buffer path each bend the curve in a different size
// band. A piecewise model keeps the paper's α+β structure but fits it
// per segment between adjacent grid knots, so each regime gets its
// own line while prediction stays two multiplies away.
package xfermodel

import (
	"fmt"

	"grophecy/internal/errdefs"
	"grophecy/internal/pcie"
	"grophecy/internal/units"
)

// PiecewiseModel predicts transfer time with one linear segment per
// adjacent knot pair, per direction. Sizes beyond the knot range are
// extrapolated with the nearest segment's line.
type PiecewiseModel struct {
	// Knots is the ascending measurement grid the segments were fitted
	// between; len(Knots)-1 segments per direction.
	Knots []int64 `json:"knots"`
	// Dir holds the per-direction segment models, indexed by
	// pcie.Direction then segment.
	Dir [pcie.NumDirections][]Model `json:"dir"`
	// Kind is the host memory kind the model was calibrated for.
	Kind pcie.MemoryKind `json:"kind"`
	// Summary is the equivalent global two-point model derived from
	// the same measurements (α from the first knot, β from the last),
	// for surfaces that render one α/β pair per direction.
	Summary BusModel `json:"summary"`
}

// segment returns the index of the segment covering size.
func (pm PiecewiseModel) segment(size int64) int {
	for i := 1; i < len(pm.Knots)-1; i++ {
		if size <= pm.Knots[i] {
			return i - 1
		}
	}
	return len(pm.Knots) - 2
}

// Predict returns the modeled time for one transfer. Invalid
// directions and sizes yield errdefs.ErrInvalidInput.
func (pm PiecewiseModel) Predict(dir pcie.Direction, size int64) (float64, error) {
	if !dir.Valid() {
		return 0, errdefs.Invalidf("xfermodel: invalid direction %d", dir)
	}
	if size < 0 {
		return 0, errdefs.Invalidf("xfermodel: negative transfer size %d", size)
	}
	if len(pm.Knots) < 2 {
		return 0, errdefs.Invalidf("xfermodel: piecewise model with %d knots", len(pm.Knots))
	}
	mPredictions.Inc()
	seg := pm.Dir[dir][pm.segment(size)]
	return seg.Alpha + seg.Beta*float64(size), nil
}

// Valid reports whether the model is structurally and physically
// plausible. Segment betas may legitimately differ per regime but a
// non-positive slope means the calibration went wrong.
func (pm PiecewiseModel) Valid() bool {
	if len(pm.Knots) < 2 {
		return false
	}
	for i := 1; i < len(pm.Knots); i++ {
		if pm.Knots[i] <= pm.Knots[i-1] {
			return false
		}
	}
	for d := 0; d < pcie.NumDirections; d++ {
		if len(pm.Dir[d]) != len(pm.Knots)-1 {
			return false
		}
		for _, m := range pm.Dir[d] {
			if m.Beta <= 0 {
				return false
			}
		}
	}
	return pm.Summary.Valid()
}

// DefaultPiecewiseGrid returns the default knot grid for cfg: the
// two-point sizes bracketing knots at the command-buffer, staging-
// chunk, and anomaly-band boundaries of the simulated driver stack —
// the three places where pageable transfer curves bend.
func DefaultPiecewiseGrid(cfg CalibrationConfig) []int64 {
	return cfg.Grid([]int64{
		cfg.SmallSize,
		2 * units.KB,
		64 * units.KB,
		4 * units.MB,
		cfg.LargeSize,
	})
}

// CalibratePiecewise measures every knot of the grid (cfg.Sizes, or
// DefaultPiecewiseGrid) through sample and fits one secant line
// per adjacent knot pair and direction: β is the slope between the
// two mean times, α the intercept. A knot whose mean does not exceed
// the last kept knot's is bridged by the secant across it. With
// exactly two knots this degenerates to a single global line fitted
// through both measured points.
func CalibratePiecewise(sample Sampler, cfg CalibrationConfig) (PiecewiseModel, error) {
	if err := cfg.Validate(); err != nil {
		return PiecewiseModel{}, err
	}
	knots := DefaultPiecewiseGrid(cfg)
	if len(knots) < 2 {
		return PiecewiseModel{}, errdefs.Invalidf("xfermodel: piecewise calibration needs at least two knots")
	}
	pm := PiecewiseModel{Knots: knots, Kind: cfg.Kind}
	pm.Summary = BusModel{Kind: cfg.Kind}
	for d := 0; d < pcie.NumDirections; d++ {
		dir := pcie.Direction(d)
		times := make([]float64, len(knots))
		for i, size := range knots {
			pt, err := sample(dir, cfg.Kind, size)
			if err != nil {
				return PiecewiseModel{}, fmt.Errorf("xfermodel: %v knot %d: %w", dir, size, err)
			}
			times[i] = pt.Time
			pm.Summary.CalibrationCost += pt.Cost
			pm.Summary.CalibrationTransfers += pt.Transfers
		}
		pm.Dir[d] = make([]Model, len(knots)-1)
		// A noisy draw can invert a short segment. A knot whose mean
		// does not exceed the last kept knot's stops being an endpoint,
		// so every segment between two kept knots shares their secant
		// and the fit stays continuous and increasing.
		lo := 0
		for hi := 1; hi < len(knots); hi++ {
			if times[hi] <= times[lo] && hi < len(knots)-1 {
				continue
			}
			x0, x1 := float64(knots[lo]), float64(knots[hi])
			beta := (times[hi] - times[lo]) / (x1 - x0)
			alpha := times[lo] - beta*x0
			for i := lo; i < hi; i++ {
				pm.Dir[d][i] = Model{Alpha: alpha, Beta: beta}
			}
			lo = hi
		}
		// The global summary mirrors the paper's two-point definition
		// on the same measurements: α from the smallest knot, β from
		// the largest.
		pm.Summary.Dir[d] = Model{
			Alpha: times[0],
			Beta:  times[len(times)-1] / float64(knots[len(knots)-1]),
		}
	}
	if !pm.Valid() {
		return PiecewiseModel{}, fmt.Errorf("%w: piecewise calibration produced implausible parameters",
			errdefs.ErrCalibrationFailed)
	}
	mCalibrations.Inc()
	return pm, nil
}
