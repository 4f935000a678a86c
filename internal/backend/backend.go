// Package backend makes the prediction model swappable: a Backend
// pairs a KernelPredictor (skeleton + transformation exploration →
// projected kernel time) with a TransferPredictor (direction, memory
// kind, bytes → projected transfer time), and the staged engine in
// internal/core resolves one by name from a validated registry
// instead of hard-wiring perfmodel and xfermodel into its stages.
//
// The paper's headline result is that a composable model — an
// analytical kernel projection plus an empirically calibrated
// transfer model — beats either piece alone (§V). This package takes
// the composition one step further and makes each piece replaceable:
//
//   - analytic: the paper's pipeline exactly — the MWP-CWP analytical
//     kernel model over the transformation space and the two-point
//     α+β·d transfer fit. It is the default everywhere.
//   - fitted: per-target coefficients least-squares-fitted from a
//     seeded microbenchmark suite run against the simulated hardware,
//     in the spirit of Stevens & Klöckner (arXiv:1604.04997): the
//     kernel model learns a correction on top of the analytical
//     projection, and the transfer model is fitted over a full size
//     sweep instead of two points.
//   - piecewise: analytic kernels plus segmented α/β transfer fits
//     over a small/mid/large size grid, capturing the pageable
//     mid-size non-linearity the global line misses (§III-C
//     footnote 4).
//
// A backend measures calibration points only through the Sampler in
// its Components, so it never branches on the measurement protocol:
// internal/core picks the paper's raw mean or the resilient meter.
// Every backend's calibration returns both a live Instance and a
// portable Fit; Restore rebuilds the instance from the fit without
// touching the hardware, which is how the calibration pool
// (internal/engine) and the snapshot store (internal/store) let
// daemons warm-start fitted backends across restarts.
package backend

import (
	"context"
	"encoding/json"

	"grophecy/internal/errdefs"
	"grophecy/internal/gpu"
	"grophecy/internal/pcie"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/transform"
	"grophecy/internal/xfermodel"
)

// KernelPredictor projects one kernel: explore the transformation
// space, pick the best variant under this backend's kernel-time
// model, and return the variant with its projection (whose Time is
// the backend's predicted per-invocation execution time).
type KernelPredictor interface {
	ProjectKernel(ctx context.Context, k *skeleton.Kernel, arch gpu.Arch) (transform.Variant, perfmodel.Projection, error)
}

// TransferPredictor projects the time of one bus transfer of size
// bytes with the given host memory kind. Implementations are
// calibrated for one kind; predicting for another is an error, not a
// silent extrapolation.
type TransferPredictor interface {
	PredictTransfer(dir pcie.Direction, kind pcie.MemoryKind, size int64) (float64, error)
}

// Components is what a backend calibrates against. Transfer points
// are measured through Sample, under whichever protocol the machine
// selects (the paper's raw mean, or the resilient meter on a machine
// with armed faults); anything else a backend measures must run on
// scratch hardware derived from Seed. Calibration therefore never
// advances the serving machine's own noise streams.
type Components struct {
	Sample xfermodel.Sampler
	// Health is the calibration's health record: the two-point ladder
	// records its fallbacks there, beside the sampler's retries. Nil
	// for the raw protocol.
	Health *xfermodel.Health
	Arch   gpu.Arch
	// Seed is the machine seed; scratch simulators used by fitting
	// microbenchmarks derive their own streams from it.
	Seed uint64
}

// Instance is a calibrated backend ready to predict.
type Instance struct {
	Kernel   KernelPredictor
	Transfer TransferPredictor
	// Linear is the global α/β summary of the transfer calibration.
	// Every backend provides one — it is what reports, the CLI banner,
	// and GET /targets render regardless of how the backend actually
	// predicts.
	Linear xfermodel.BusModel
}

// Fit is a backend's portable calibration artifact: everything needed
// to Restore a bit-identical Instance without re-measuring. The
// payload shape is private to the backend that produced it.
type Fit struct {
	// Backend is the producing backend's registry name.
	Backend string `json:"backend"`
	// Kind is the host memory kind the fit was calibrated for.
	Kind pcie.MemoryKind `json:"kind"`
	// Payload is the backend-private fit document.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Validate checks the fit envelope: a well-formed backend name, a
// valid memory kind, and a non-empty payload. The payload's contents
// are opaque here — only the owning backend can interpret them, via
// Restore.
func (f Fit) Validate() error {
	if !validName(f.Backend) {
		return errdefs.Invalidf("backend: fit with invalid backend name %q", f.Backend)
	}
	if !f.Kind.Valid() {
		return errdefs.Invalidf("backend: fit with invalid memory kind %d", f.Kind)
	}
	if len(f.Payload) == 0 {
		return errdefs.Invalidf("backend: fit %q carries no payload", f.Backend)
	}
	return nil
}

// Backend is one named prediction model implementation.
type Backend interface {
	// Name is the registry key ("analytic"): lowercase letters,
	// digits, dashes.
	Name() string
	// Description is the one-line summary shown by listings.
	Description() string
	// Calibrate fits the backend against live (simulated) hardware
	// under cfg and returns a ready instance plus its portable fit.
	Calibrate(ctx context.Context, comp Components, cfg xfermodel.CalibrationConfig) (Instance, Fit, error)
	// Restore rebuilds an instance from a fit this backend produced,
	// without touching any hardware.
	Restore(fit Fit) (Instance, error)
}

// checkFit verifies a fit belongs to the restoring backend.
func checkFit(b Backend, fit Fit) error {
	if err := fit.Validate(); err != nil {
		return err
	}
	if fit.Backend != b.Name() {
		return errdefs.Invalidf("backend: %s cannot restore a %q fit", b.Name(), fit.Backend)
	}
	return nil
}
