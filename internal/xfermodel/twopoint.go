// The paper's two-point calibration (§III-C), hardened against a
// faulty bus.
//
// The paper's scheme is deliberately minimal — two sizes, ten runs
// each — which is exactly why it is fragile: one stuck transfer or one
// outlier burst lands directly in alpha or beta. CalibrateTwoPoint
// keeps the two-point structure, measures each point through whatever
// protocol its Sampler implements (MeanSampler: the paper's raw mean;
// RobustSampler: the resilient meter) and, when a point cannot be
// measured at all, walks a degradation ladder instead of failing the
// whole pipeline:
//
//  1. measure the requested size;
//  2. fall back to the nearest healthy size — halving the large
//     point down to a few megabytes (footnote 5: "any size larger
//     than a few megabytes would be sufficient"), doubling the small
//     point up to a few kilobytes — and rescale;
//  3. fall back to a conservative default model for that direction,
//     with an explicit warning in the report.
//
// Every rung taken is recorded in Health.Degradations so reports can
// say precisely how trustworthy the model is. A clean bus measures
// every requested size, so the ladder never leaves its first rung.
package xfermodel

import (
	"context"
	"fmt"

	"grophecy/internal/errdefs"
	"grophecy/internal/measure"
	"grophecy/internal/obs"
	"grophecy/internal/pcie"
	"grophecy/internal/units"
)

// Health records what a calibration had to do to produce a model.
type Health struct {
	// Degradations lists, in order, every fallback taken. Empty means
	// a clean calibration.
	Degradations []string
	// Retries is the total transient retries absorbed.
	Retries int
	// Conservative marks directions that fell all the way back to the
	// conservative default model, indexed by pcie.Direction.
	Conservative [pcie.NumDirections]bool
}

// Degraded reports whether any fallback was taken.
func (h *Health) Degraded() bool { return len(h.Degradations) > 0 }

// note records one degradation.
func (h *Health) note(format string, args ...any) {
	h.Degradations = append(h.Degradations, fmt.Sprintf(format, args...))
}

// ConservativeModel is the last rung of the degradation ladder: a
// deliberately pessimistic transfer model (high latency, low
// bandwidth) so that projections made with it under-promise rather
// than over-promise GPU benefit.
func ConservativeModel() Model {
	return Model{Alpha: 50e-6, Beta: 1 / units.GBps(1.0)}
}

// smallLadder returns the fallback sizes for the alpha point: the
// requested size, then doublings up to 16x (alpha is a latency
// measurement, so any size in the latency-dominated regime works).
func smallLadder(size int64) []int64 {
	out := []int64{size}
	for i := 0; i < 4; i++ {
		size *= 2
		out = append(out, size)
	}
	return out
}

// largeLadder returns the fallback sizes for the beta point: the
// requested size, then halvings while the size stays in the
// bandwidth-dominated regime (>= 4 MB, per the paper's footnote 5).
func largeLadder(size int64) []int64 {
	out := []int64{size}
	for size/2 >= 4*units.MB {
		size /= 2
		out = append(out, size)
	}
	return out
}

// measurePoint walks one ladder until a size measures successfully
// through sample (a RobustSampler adds its retries to h). It returns the
// winning size and its robust estimate; err is non-nil only when every
// rung failed (the last error is returned).
func measurePoint(ctx context.Context, sample Sampler,
	dir pcie.Direction, kind pcie.MemoryKind, ladder []int64, what string, h *Health,
) (int64, Point, error) {
	var lastErr error
	for i, size := range ladder {
		pt, err := sample(dir, kind, size)
		if err == nil {
			if i > 0 {
				h.note("%v %s point: fell back from %s to %s after %v",
					dir, what, units.FormatBytes(ladder[0]), units.FormatBytes(size), lastErr)
				obs.Log(ctx).Warn("calibration point fell back to another size",
					"dir", dir.String(), "point", what,
					"requested", units.FormatBytes(ladder[0]),
					"used", units.FormatBytes(size),
					"attempts", i+1, "retries", h.Retries,
					"err", lastErr.Error())
			}
			return size, pt, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break // cancelled: no point walking further rungs
		}
	}
	if ctx.Err() == nil { // cancellation is propagation, not degradation
		obs.Log(ctx).Warn("calibration point unmeasurable at every ladder size",
			"dir", dir.String(), "point", what,
			"attempts", len(ladder), "retries", h.Retries,
			"err", lastErr.Error())
	}
	return 0, Point{}, lastErr
}

// RobustSampler measures calibration points with meter through src
// (typically the fault-wrapped bus), adding every absorbed transient
// retry to h. CalibrateTwoPoint walks its ladder over it; the
// grid-based schemes have no ladder, so there a point the meter
// cannot measure fails the calibration.
func RobustSampler(ctx context.Context, meter *measure.Meter, src measure.Source, h *Health) Sampler {
	return func(dir pcie.Direction, kind pcie.MemoryKind, size int64) (Point, error) {
		res, err := meter.MeasureTransfer(ctx, src, dir, kind, size)
		h.Retries += res.Retries
		if err != nil {
			return Point{}, err
		}
		return Point{Time: res.Value, Cost: res.SimTime, Transfers: res.Samples}, nil
	}
}

// CalibrateTwoPoint derives a BusModel from sample using the paper's
// two-measurement scheme, independently per direction, walking the
// degradation ladder over any point sample cannot measure. This is
// the procedure GROPHECY++ runs automatically on each new system.
// Every fallback is recorded in h, which is the health record the
// sampler adds its retries to; nil keeps no record. It fails
// (errdefs.ErrCalibrationFailed) only when even the conservative
// fallback cannot produce a plausible model, or with
// errdefs.ErrMeasureTimeout when ctx is cancelled mid-calibration.
func CalibrateTwoPoint(ctx context.Context, sample Sampler, cfg CalibrationConfig, h *Health) (BusModel, error) {
	if err := cfg.Validate(); err != nil {
		return BusModel{}, err
	}
	if sample == nil {
		return BusModel{}, errdefs.Invalidf("xfermodel: two-point calibration needs a sampler")
	}
	if h == nil {
		h = &Health{}
	}
	bm := BusModel{Kind: cfg.Kind}
	for d := 0; d < pcie.NumDirections; d++ {
		dir := pcie.Direction(d)

		_, small, errS := measurePoint(ctx, sample, dir, cfg.Kind,
			smallLadder(cfg.SmallSize), "small", h)
		sizeL, large, errL := measurePoint(ctx, sample, dir, cfg.Kind,
			largeLadder(cfg.LargeSize), "large", h)
		if ctx.Err() != nil {
			return BusModel{}, fmt.Errorf("%w: calibration cancelled: %w",
				errdefs.ErrMeasureTimeout, ctx.Err())
		}

		m := Model{}
		switch {
		case errS == nil && errL == nil:
			m = Model{Alpha: small.Time, Beta: large.Time / float64(sizeL)}
		case errS == nil:
			// Beta unmeasurable: conservative bandwidth, measured alpha.
			m = Model{Alpha: small.Time, Beta: ConservativeModel().Beta}
			h.Conservative[d] = true
			h.note("%v large point unmeasurable (%v): using conservative bandwidth %s",
				dir, errL, m)
			obs.Log(ctx).Warn("calibration degraded to conservative bandwidth",
				"dir", dir.String(), "retries", h.Retries, "model", m.String(), "err", errL.Error())
		case errL == nil:
			// Alpha unmeasurable: bound it by the large measurement's
			// per-transfer floor via the conservative default.
			m = Model{Alpha: ConservativeModel().Alpha, Beta: large.Time / float64(sizeL)}
			h.Conservative[d] = true
			h.note("%v small point unmeasurable (%v): using conservative latency %s",
				dir, errS, m)
			obs.Log(ctx).Warn("calibration degraded to conservative latency",
				"dir", dir.String(), "retries", h.Retries, "model", m.String(), "err", errS.Error())
		default:
			m = ConservativeModel()
			h.Conservative[d] = true
			h.note("%v calibration unmeasurable (small: %v; large: %v): using conservative default %s",
				dir, errS, errL, m)
			obs.Log(ctx).Warn("calibration degraded to the conservative default model",
				"dir", dir.String(), "retries", h.Retries, "model", m.String(),
				"small_err", errS.Error(), "large_err", errL.Error())
		}
		bm.Dir[d] = m
		bm.CalibrationCost += small.Cost + large.Cost
		bm.CalibrationTransfers += small.Transfers + large.Transfers
	}
	if !bm.Valid() {
		return BusModel{}, fmt.Errorf("%w: two-point calibration produced implausible parameters",
			errdefs.ErrCalibrationFailed)
	}
	mCalibrations.Inc()
	return bm, nil
}
