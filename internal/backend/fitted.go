package backend

import (
	"context"
	"encoding/json"
	"fmt"

	"grophecy/internal/errdefs"
	"grophecy/internal/gpu"
	"grophecy/internal/gpusim"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/stats"
	"grophecy/internal/transform"
	"grophecy/internal/units"
	"grophecy/internal/xfermodel"
)

// scratchSeedSalt derives the fitted backend's private simulator
// stream from the machine seed. Like the calibration transfers (see
// core.New), the microbenchmark suite must not consume draws from the
// serving machine's noise streams: a restored fit must leave the
// machine exactly as a fresh calibration would, and every backend
// must measure the same truth.
const scratchSeedSalt = 0xf17d

// kernelFeatures is the feature count of the fitted kernel model: a
// constant term, the kernel's memory-instruction share, and its
// irregular-access fraction. The model is multiplicative — the
// coefficients scale the analytical projection — so every feature is
// dimensionless and O(1).
const kernelFeatures = 3

// fittedBackend learns per-target correction coefficients from a
// seeded microbenchmark suite, in the spirit of the fitted GPU models
// of Stevens & Klöckner (arXiv:1604.04997): instead of trusting the
// analytical projection outright, it runs a fixed set of synthetic
// kernels through the target's timing simulator and least-squares
// fits the measured/analytic time ratio against the kernel's
// instruction-mix shape. The transfer side replaces the paper's
// two-point scheme with a full least-squares sweep over a
// power-of-two grid.
type fittedBackend struct{}

func (fittedBackend) Name() string { return "fitted" }

func (fittedBackend) Description() string {
	return "hardware-fitted: kernel coefficients regressed from a seeded microbenchmark suite, least-squares transfer sweep"
}

// fittedFit is the persisted payload: everything Restore needs.
type fittedFit struct {
	// KernelCoef are the least-squares ratio coefficients over
	// [1, memory-instruction share, irregular fraction].
	KernelCoef []float64 `json:"kernelCoef"`
	// Bus is the least-squares transfer model.
	Bus xfermodel.BusModel `json:"bus"`
}

// microbenchSuite synthesizes the fitting workloads: a grid over
// problem size, block size, and instruction mix, all launchable on
// every supported architecture generation. The suite is fixed — the
// same characteristics on the same seed give the same fit, which is
// what makes fitted calibrations snapshot-safe.
func microbenchSuite() []perfmodel.Characteristics {
	type mix struct {
		name          string
		comp          float64
		loads, stores float64
		tpr           float64
		bytes         float64
		irregular     float64
	}
	mixes := []mix{
		{name: "compute", comp: 200, loads: 2, stores: 1, tpr: 2, bytes: 12, irregular: 0},
		{name: "memory", comp: 30, loads: 8, stores: 4, tpr: 8, bytes: 48, irregular: 0.1},
		{name: "balanced", comp: 80, loads: 4, stores: 2, tpr: 4, bytes: 24, irregular: 0},
	}
	threads := []int64{1 << 14, 1 << 17, 1 << 20}
	blockSizes := []int{128, 256}

	var suite []perfmodel.Characteristics
	for _, m := range mixes {
		for _, n := range threads {
			for _, bs := range blockSizes {
				suite = append(suite, perfmodel.Characteristics{
					Name:                   fmt.Sprintf("microbench:%s/n%d/bs%d", m.name, n, bs),
					Threads:                n,
					BlockSize:              bs,
					CompInstsPerThread:     m.comp,
					GlobalLoadsPerThread:   m.loads,
					GlobalStoresPerThread:  m.stores,
					TransactionsPerRequest: m.tpr,
					BytesPerThread:         m.bytes,
					RegsPerThread:          12,
					IrregularFraction:      m.irregular,
				})
			}
		}
	}
	return suite
}

// kernelFeatureRow builds the regression features for one kernel: a
// constant, the memory share of the instruction mix, and the
// irregular-access fraction. All dimensionless and O(1), so the
// normal equations stay well conditioned and the correction is a
// multiplier on the analytic time rather than an absolute-seconds
// surface. The multiplier is not bounded: the suite's irregular
// fraction only spans [0, 0.1], so a kernel far outside it (CFD's
// compute_flux, at 0.54) can be scaled several-fold.
func kernelFeatureRow(ch perfmodel.Characteristics) []float64 {
	mem := ch.GlobalLoadsPerThread + ch.GlobalStoresPerThread
	total := ch.CompInstsPerThread + mem
	share := 0.0
	if total > 0 {
		share = mem / total
	}
	return []float64{1, share, ch.IrregularFraction}
}

// fittedGrid returns the transfer sample grid: powers of two from
// 4 KB up to (and including) LargeSize.
func fittedGrid(cfg xfermodel.CalibrationConfig) []int64 {
	var grid []int64
	for s := int64(4 * units.KB); s < cfg.LargeSize; s <<= 1 {
		grid = append(grid, s)
	}
	return append(grid, cfg.LargeSize)
}

func (fittedBackend) Calibrate(ctx context.Context, comp Components, cfg xfermodel.CalibrationConfig) (Instance, Fit, error) {
	if err := comp.Arch.Validate(); err != nil {
		return Instance{}, Fit{}, fmt.Errorf("backend: fitted calibration needs an architecture: %w", err)
	}
	bm, err := xfermodel.CalibrateLeastSquares(comp.Sample, cfg, fittedGrid(cfg))
	if err != nil {
		return Instance{}, Fit{}, err
	}

	// The microbenchmarks run on a scratch simulator with a private
	// noise stream; the serving machine's GPU stream is untouched.
	sim := gpusim.New(comp.Arch, comp.Seed^scratchSeedSalt)

	suite := microbenchSuite()
	rows := make([][]float64, 0, len(suite))
	ys := make([]float64, 0, len(suite))
	for _, ch := range suite {
		if err := ctx.Err(); err != nil {
			return Instance{}, Fit{}, err
		}
		proj, err := perfmodel.Project(comp.Arch, ch)
		if err != nil {
			return Instance{}, Fit{}, fmt.Errorf("backend: microbenchmark %s projection: %w", ch.Name, err)
		}
		measured, err := sim.MeasureMean(ch, cfg.Runs)
		if err != nil {
			return Instance{}, Fit{}, fmt.Errorf("backend: microbenchmark %s measurement: %w", ch.Name, err)
		}
		if proj.Time <= 0 {
			continue
		}
		rows = append(rows, kernelFeatureRow(ch))
		ys = append(ys, measured/proj.Time)
	}
	coef, err := stats.FitMulti(rows, ys)
	if err != nil {
		return Instance{}, Fit{}, fmt.Errorf("backend: fitting kernel coefficients: %w", err)
	}

	payload, err := json.Marshal(fittedFit{KernelCoef: coef, Bus: bm})
	if err != nil {
		return Instance{}, Fit{}, fmt.Errorf("backend: encoding fitted fit: %w", err)
	}
	inst := Instance{
		Kernel:   fittedKernels{coef: coef},
		Transfer: analyticTransfers{bm: bm},
		Linear:   bm,
	}
	return inst, Fit{Backend: "fitted", Kind: cfg.Kind, Payload: payload}, nil
}

func (b fittedBackend) Restore(fit Fit) (Instance, error) {
	if err := checkFit(b, fit); err != nil {
		return Instance{}, err
	}
	var ff fittedFit
	if err := json.Unmarshal(fit.Payload, &ff); err != nil {
		return Instance{}, fmt.Errorf("backend: decoding fitted fit: %w", err)
	}
	if len(ff.KernelCoef) != kernelFeatures || !ff.Bus.Valid() || ff.Bus.Kind != fit.Kind {
		return Instance{}, fmt.Errorf("backend: fitted fit payload is implausible")
	}
	return Instance{
		Kernel:   fittedKernels{coef: ff.KernelCoef},
		Transfer: analyticTransfers{bm: ff.Bus},
		Linear:   ff.Bus,
	}, nil
}

// fittedKernels scores every transformation variant with the fitted
// coefficients and picks the cheapest.
type fittedKernels struct {
	coef []float64
}

// predict evaluates the fitted model on one candidate: the analytic
// projection scaled by the learned mix-dependent ratio. A regression
// can extrapolate below zero on mixes far outside the suite; a
// non-positive multiplier falls back to the analytical time rather
// than reporting an unphysical kernel.
func (f fittedKernels) predict(analytic float64, ch perfmodel.Characteristics) float64 {
	if analytic <= 0 {
		return analytic
	}
	row := kernelFeatureRow(ch)
	var ratio float64
	for i, c := range f.coef {
		ratio += c * row[i]
	}
	if ratio <= 0 {
		return analytic
	}
	return analytic * ratio
}

func (f fittedKernels) ProjectKernel(ctx context.Context, k *skeleton.Kernel, arch gpu.Arch) (transform.Variant, perfmodel.Projection, error) {
	variants, err := transform.Enumerate(k, arch)
	if err != nil {
		return transform.Variant{}, perfmodel.Projection{}, err
	}
	var (
		best     transform.Variant
		bestProj perfmodel.Projection
		bestTime float64
		found    bool
	)
	for _, v := range variants {
		if err := ctx.Err(); err != nil {
			return transform.Variant{}, perfmodel.Projection{}, err
		}
		proj, err := perfmodel.Project(arch, v.Ch)
		if err != nil {
			// An unlaunchable variant (zero occupancy on this arch) is
			// skipped, not fatal — the same policy as perfmodel's
			// ProjectBest on the analytic path.
			continue
		}
		t := f.predict(proj.Time, v.Ch)
		if !found || t < bestTime {
			best, bestProj, bestTime, found = v, proj, t, true
			bestProj.Time = t
		}
	}
	if !found {
		return transform.Variant{}, perfmodel.Projection{}, errdefs.Invalidf("backend: kernel %q has no launchable variants", k.Name)
	}
	return best, bestProj, nil
}
