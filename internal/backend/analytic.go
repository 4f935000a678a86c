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
// α+β·d transfer calibration (§III-C). Its calibration performs
// exactly the same bus draws, in the same order, as the pre-backend
// engine did, so reports through it are byte-identical to the
// historical goldens — and it is the default backend everywhere.
type analyticBackend struct{}

func (analyticBackend) Name() string { return "analytic" }

func (analyticBackend) Description() string {
	return "MWP-CWP analytical kernel model + two-point α/β transfer calibration (the paper's pipeline; default)"
}

func (analyticBackend) Calibrate(ctx context.Context, comp Components, cfg xfermodel.CalibrationConfig) (Instance, Fit, error) {
	if comp.Bus == nil {
		return Instance{}, Fit{}, fmt.Errorf("backend: analytic calibration needs a bus")
	}
	var (
		bm     xfermodel.BusModel
		health *xfermodel.Health
		err    error
	)
	if comp.Meter != nil {
		// The resilient two-point scheme keeps the paper's structure
		// but walks a degradation ladder instead of failing.
		bm, health, err = xfermodel.CalibrateResilient(ctx, comp.Meter, comp.Source, cfg)
	} else {
		bm, err = xfermodel.CalibrateTwoPoint(comp.Bus, cfg)
	}
	if err != nil {
		return Instance{}, Fit{}, err
	}
	payload, err := json.Marshal(bm)
	if err != nil {
		return Instance{}, Fit{}, fmt.Errorf("backend: encoding analytic fit: %w", err)
	}
	inst := analyticInstance(bm)
	inst.Health = health
	return inst, Fit{Backend: "analytic", Kind: cfg.Kind, Payload: payload}, nil
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
	return transform.BestCtx(ctx, k, arch)
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
