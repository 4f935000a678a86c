package backend

import (
	"context"
	"encoding/json"
	"fmt"

	"grophecy/internal/pcie"
	"grophecy/internal/xfermodel"
)

// piecewiseBackend keeps the paper's analytical kernel model but
// replaces the global transfer line with segmented α/β fits over a
// small/mid/large size grid (xfermodel.CalibratePiecewise), capturing
// the pageable mid-size non-linearity the two-point model concedes in
// §III-C footnote 4.
type piecewiseBackend struct{}

func (piecewiseBackend) Name() string { return "piecewise" }

func (piecewiseBackend) Description() string {
	return "analytic kernels + segmented α/β transfer fits over a size grid (captures pageable mid-size non-linearity)"
}

func (piecewiseBackend) Calibrate(ctx context.Context, comp Components, cfg xfermodel.CalibrationConfig) (Instance, Fit, error) {
	pm, err := xfermodel.CalibratePiecewise(comp.Sample, cfg)
	if err != nil {
		return Instance{}, Fit{}, err
	}
	payload, err := json.Marshal(pm)
	if err != nil {
		return Instance{}, Fit{}, fmt.Errorf("backend: encoding piecewise fit: %w", err)
	}
	return piecewiseInstance(pm), Fit{Backend: "piecewise", Kind: cfg.Kind, Payload: payload}, nil
}

func (b piecewiseBackend) Restore(fit Fit) (Instance, error) {
	if err := checkFit(b, fit); err != nil {
		return Instance{}, err
	}
	var pm xfermodel.PiecewiseModel
	if err := json.Unmarshal(fit.Payload, &pm); err != nil {
		return Instance{}, fmt.Errorf("backend: decoding piecewise fit: %w", err)
	}
	if !pm.Valid() || pm.Kind != fit.Kind {
		return Instance{}, fmt.Errorf("backend: piecewise fit payload is implausible")
	}
	return piecewiseInstance(pm), nil
}

func piecewiseInstance(pm xfermodel.PiecewiseModel) Instance {
	return Instance{
		Kernel:   analyticKernels{},
		Transfer: piecewiseTransfers{pm: pm},
		Linear:   pm.Summary,
	}
}

// piecewiseTransfers predicts with the segment covering the size.
type piecewiseTransfers struct {
	pm xfermodel.PiecewiseModel
}

func (t piecewiseTransfers) PredictTransfer(dir pcie.Direction, kind pcie.MemoryKind, size int64) (float64, error) {
	if kind != t.pm.Kind {
		return 0, fmt.Errorf("backend: transfer model calibrated for %v memory, asked for %v", t.pm.Kind, kind)
	}
	return t.pm.Predict(dir, size)
}
