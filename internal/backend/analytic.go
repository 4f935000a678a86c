package backend

import (
	"context"
	"encoding/json"
	"fmt"

	"grophecy/internal/gpu"
	"grophecy/internal/pcie"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/transform"
	"grophecy/internal/xfermodel"
)

// analyticBackend is the paper's pipeline: the MWP-CWP analytical
// kernel model over the transformation space (§II) plus the two-point
// α+β·d transfer calibration (§III-C). It is the default backend
// everywhere.
type analyticBackend struct{}

func (analyticBackend) Name() string { return "analytic" }

func (analyticBackend) Description() string {
	return "MWP-CWP analytical kernel model + two-point α/β transfer calibration (the paper's pipeline; default)"
}

func (analyticBackend) Calibrate(ctx context.Context, comp Components, cfg xfermodel.CalibrationConfig) (Instance, Fit, error) {
	bm, err := xfermodel.CalibrateTwoPoint(ctx, comp.Sample, cfg, comp.Health)
	if err != nil {
		return Instance{}, Fit{}, err
	}
	payload, err := json.Marshal(bm)
	if err != nil {
		return Instance{}, Fit{}, fmt.Errorf("backend: encoding analytic fit: %w", err)
	}
	return analyticInstance(bm), Fit{Backend: "analytic", Kind: cfg.Kind, Payload: payload}, nil
}

func (b analyticBackend) Restore(fit Fit) (Instance, error) {
	if err := checkFit(b, fit); err != nil {
		return Instance{}, err
	}
	var bm xfermodel.BusModel
	if err := json.Unmarshal(fit.Payload, &bm); err != nil {
		return Instance{}, fmt.Errorf("backend: decoding analytic fit: %w", err)
	}
	if !bm.Valid() || bm.Kind != fit.Kind {
		return Instance{}, fmt.Errorf("backend: analytic fit payload is implausible")
	}
	return analyticInstance(bm), nil
}

// analyticInstance wraps an already-calibrated bus model in the
// analytic backend's predictors.
func analyticInstance(bm xfermodel.BusModel) Instance {
	return Instance{
		Kernel:   analyticKernels{},
		Transfer: analyticTransfers{bm: bm},
		Linear:   bm,
	}
}

// analyticKernels projects kernels with the analytical model: explore
// the transformation space and return the fastest projection.
type analyticKernels struct{}

func (analyticKernels) ProjectKernel(ctx context.Context, k *skeleton.Kernel, arch gpu.Arch) (transform.Variant, perfmodel.Projection, error) {
	return transform.Best(ctx, k, arch)
}

// analyticTransfers predicts with the calibrated global line.
type analyticTransfers struct {
	bm xfermodel.BusModel
}

func (t analyticTransfers) PredictTransfer(dir pcie.Direction, kind pcie.MemoryKind, size int64) (float64, error) {
	if kind != t.bm.Kind {
		return 0, fmt.Errorf("backend: transfer model calibrated for %v memory, asked for %v", t.bm.Kind, kind)
	}
	return t.bm.Predict(dir, size)
}
