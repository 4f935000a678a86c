// Package core is GROPHECY++ itself: the integration of kernel
// performance projection (GROPHECY), data usage analysis, and the
// empirical PCIe transfer model into one framework that projects the
// overall GPU speedup of a CPU code skeleton (paper §III, Figure 1).
//
// The package also implements the paper's measurement methodology
// (§IV-A) against the simulated hardware:
//
//   - the predicted kernel execution time is the analytical projection
//     of the best-performing transformation variant;
//   - the real kernel execution time is "measured" by running a
//     hand-coded version with the same optimization strategies — here,
//     the timing simulator executing the winning variant;
//   - the predicted data transfer time comes from the calibrated
//     linear model; the real one is measured on the (simulated) bus
//     using pinned memory;
//   - every measured time is the arithmetic mean of ten runs, taken
//     by the measure.Meter that runs the resilient protocol instead
//     on a machine with armed faults;
//   - total GPU time = sum of kernel times (one launch per kernel per
//     iteration) + collective transfer time (once, independent of the
//     iteration count);
//   - GPU speedup = measured CPU time / total GPU time.
//
// Calibration and evaluation take a context first (New,
// Projector.Evaluate, EvaluateIterations, EvaluateProgram); it carries
// the tracer, the logger and cancellation.
package core

import (
	"context"
	"errors"
	"fmt"

	"grophecy/internal/backend"
	"grophecy/internal/cpumodel"
	"grophecy/internal/datausage"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/gpu"
	"grophecy/internal/gpusim"
	"grophecy/internal/measure"
	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/pcie"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/stats"
	"grophecy/internal/trace"
	"grophecy/internal/transform"
	"grophecy/internal/xfermodel"
)

// Pipeline-level instruments. Per-stage packages own their own
// counters; these cover the orchestration layer itself.
var (
	mEvaluations = metrics.Default.MustCounter("core_evaluations_total",
		"workload evaluations run through the projection pipeline")
	mDegradations = metrics.Default.MustCounter("core_degradations_total",
		"measurement fallbacks recorded in reports")
)

// MeasureRuns is how many runs each measurement averages (§IV-A).
const MeasureRuns = 10

// Machine bundles the simulated hardware of one evaluation node.
type Machine struct {
	GPUArch gpu.Arch
	CPUArch cpumodel.Arch
	GPU     *gpusim.Sim
	CPU     *cpumodel.Sim
	Bus     *pcie.Bus

	// Seed is the machine seed the noise streams were derived from.
	// Backends that run scratch simulations (the fitted backend's
	// microbenchmark suite) derive their private streams from it.
	Seed uint64

	// Faults, when non-nil, wraps the three measurement surfaces with
	// a deterministic fault-injection layer. Arm it with ArmFaults;
	// projectors then measure through the wrapped surfaces.
	Faults *fault.Set
}

// ArmFaults wraps the machine's measurement surfaces with plan's
// deterministic fault streams. An empty plan still installs the
// wrappers, but they are strict pass-throughs.
func (m *Machine) ArmFaults(plan fault.Plan) {
	m.Faults = fault.NewSet(plan, m.Bus, m.GPU, m.CPU)
}

// NewMachine builds the paper's evaluation node: a Xeon E5405 CPU, a
// Quadro FX 5600 GPU, and a PCIe v1 x16 bus, with all noise streams
// derived from the given seed.
func NewMachine(seed uint64) *Machine {
	return NewMachineWith(gpu.QuadroFX5600(), cpumodel.XeonE5405(), pcie.DefaultConfig(), seed)
}

// NewMachineWith builds a machine from explicit components. The bus
// config's own seed is replaced by one derived from seed.
func NewMachineWith(g gpu.Arch, c cpumodel.Arch, bus pcie.Config, seed uint64) *Machine {
	bus.Seed = seed ^ 0xb05
	gpuCfg := gpusim.DefaultConfig()
	gpuCfg.Seed = seed ^ 0x69b5
	cpuCfg := cpumodel.DefaultConfig()
	cpuCfg.Seed = seed ^ 0xc6b5
	return &Machine{
		GPUArch: g,
		CPUArch: c,
		GPU:     gpusim.New(g, gpuCfg),
		CPU:     cpumodel.New(c, cpuCfg),
		Bus:     pcie.NewBus(bus),
		Seed:    seed,
	}
}

// Workload is one benchmark instance: the offloaded kernel sequence
// plus the CPU-side baseline description.
type Workload struct {
	// Name is the application name ("HotSpot"); DataSize labels the
	// input ("1024 x 1024").
	Name     string
	DataSize string
	// Seq is the offloaded kernel sequence, including its iteration
	// count.
	Seq *skeleton.Sequence
	// Hints are the optional user annotations for data usage analysis.
	Hints datausage.Hints
	// CPU describes one iteration of the OpenMP baseline.
	CPU cpumodel.Workload
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("core: workload with empty name")
	}
	if w.Seq == nil {
		return fmt.Errorf("core: workload %q has no kernel sequence", w.Name)
	}
	if err := w.Seq.Validate(); err != nil {
		return err
	}
	return w.CPU.Validate()
}

// WithIterations returns a copy of the workload with a different
// iteration count (Figs 8, 10, 12).
func (w Workload) WithIterations(n int) Workload {
	w.Seq = w.Seq.WithIterations(n)
	return w
}

// KernelResult is the per-kernel outcome: the chosen transformation,
// and predicted vs measured per-invocation time.
type KernelResult struct {
	Kernel    string
	Variant   transform.Variant
	Predicted float64 // seconds per invocation (analytical)
	Measured  float64 // seconds per invocation (simulated, 10-run mean)
}

// TransferResult is the per-transfer outcome.
type TransferResult struct {
	Transfer  datausage.Transfer
	Predicted float64 // seconds (linear model)
	Measured  float64 // seconds (bus, 10-run mean)
}

// Report is the full evaluation of one workload: everything needed to
// reproduce the paper's tables and figures for that workload.
type Report struct {
	Name       string
	DataSize   string
	Iterations int

	Kernels   []KernelResult
	Transfers []TransferResult
	Plan      datausage.Plan

	// CPUTime is the measured CPU baseline for all iterations.
	CPUTime float64
	// Totals over all iterations (kernels relaunch each iteration;
	// transfers happen once).
	PredKernelTime   float64
	MeasKernelTime   float64
	PredTransferTime float64
	MeasTransferTime float64

	// Resilient marks reports produced through the resilient
	// measurement layer (retries, robust estimators, degradation
	// ladder) rather than the paper's raw 10-run means.
	Resilient bool `json:",omitempty"`
	// Degradations lists, in order, every fallback the resilient
	// pipeline took: calibration ladder rungs, partial measurements,
	// predicted-value substitutions. Empty for clean runs.
	Degradations []string `json:",omitempty"`
}

// MeasTotalGPU returns the measured total GPU time.
func (r Report) MeasTotalGPU() float64 { return r.MeasKernelTime + r.MeasTransferTime }

// PredTotalGPU returns the predicted total GPU time.
func (r Report) PredTotalGPU() float64 { return r.PredKernelTime + r.PredTransferTime }

// MeasuredSpeedup is the paper's ground truth: measured CPU time over
// measured total GPU time.
func (r Report) MeasuredSpeedup() float64 { return r.CPUTime / r.MeasTotalGPU() }

// SpeedupKernelOnly is the prediction that ignores data transfer —
// plain GROPHECY.
func (r Report) SpeedupKernelOnly() float64 { return r.CPUTime / r.PredKernelTime }

// SpeedupTransferOnly is the prediction using only the transfer time
// (Table II's middle column).
func (r Report) SpeedupTransferOnly() float64 { return r.CPUTime / r.PredTransferTime }

// SpeedupFull is GROPHECY++'s prediction: kernel plus transfer.
func (r Report) SpeedupFull() float64 { return r.CPUTime / r.PredTotalGPU() }

// ErrKernelOnly, ErrTransferOnly, and ErrFull are the error magnitudes
// of the three speedup predictions against the measured speedup
// (Table II).
func (r Report) ErrKernelOnly() float64 {
	return stats.ErrorMagnitude(r.SpeedupKernelOnly(), r.MeasuredSpeedup())
}

// ErrTransferOnly is the transfer-only speedup error magnitude.
func (r Report) ErrTransferOnly() float64 {
	return stats.ErrorMagnitude(r.SpeedupTransferOnly(), r.MeasuredSpeedup())
}

// ErrFull is GROPHECY++'s speedup error magnitude.
func (r Report) ErrFull() float64 {
	return stats.ErrorMagnitude(r.SpeedupFull(), r.MeasuredSpeedup())
}

// KernelErr is the overall kernel-time prediction error (Fig 6's x/y
// inputs aggregate across the kernels of one workload).
func (r Report) KernelErr() float64 {
	return stats.ErrorMagnitude(r.PredKernelTime, r.MeasKernelTime)
}

// TransferErr is the overall transfer-time prediction error.
func (r Report) TransferErr() float64 {
	return stats.ErrorMagnitude(r.PredTransferTime, r.MeasTransferTime)
}

// PercentTransfer is the fraction of measured total GPU time spent in
// transfers (Table I's "Percent Transfer").
func (r Report) PercentTransfer() float64 {
	return r.MeasTransferTime / r.MeasTotalGPU()
}

// LimitSpeedups returns the measured and predicted speedups in the
// limit of infinitely many iterations, where transfer overhead
// vanishes and both prediction styles converge (Figs 8, 10, 12).
func (r Report) LimitSpeedups() (measured, predicted float64) {
	cpuPerIter := r.CPUTime / float64(r.Iterations)
	measKPerIter := r.MeasKernelTime / float64(r.Iterations)
	predKPerIter := r.PredKernelTime / float64(r.Iterations)
	return cpuPerIter / measKPerIter, cpuPerIter / predKPerIter
}

// Projector is the configured GROPHECY++ pipeline for one machine.
// Create it with New, which runs the automatic PCIe calibration the
// paper describes ("automatically invoked by GROPHECY++ when run on a
// new system", §III-C), or rebuild one from a cached Calibration with
// Restore.
//
// The measurement protocol follows the machine: a clean machine
// measures with the paper's raw 10-run means; a machine with armed
// faults (Machine.ArmFaults) calibrates and measures with the
// resilient protocol (measure.DefaultConfig) over the fault-wrapped
// surfaces, with every backend.
type Projector struct {
	m    *Machine
	kind pcie.MemoryKind

	// backendName is the prediction backend this projector dispatches
	// through; inst holds its calibrated kernel and transfer
	// predictors, and cal the calibration they came from.
	backendName string
	inst        backend.Instance
	cal         Calibration

	// meter takes every measurement from surf: on a clean machine the
	// paper's 10-run mean over pass-through surfaces, bit for bit; on
	// an armed one the resilient protocol over its fault-wrapped ones.
	meter *measure.Meter
	surf  *fault.Set
}

// Options selects what New calibrates. The zero value is the paper's
// pipeline: the analytic backend on pinned host memory.
type Options struct {
	// Backend is the prediction backend's registry name; "" means
	// backend.DefaultName.
	Backend string
	// Memory is the host memory kind to calibrate for and measure
	// with. GROPHECY++ assumes pinned memory (§III-C); Pageable is the
	// ablation.
	Memory pcie.MemoryKind
}

// Calibration is a projector's calibration in portable form: the
// backend's fit plus the position of every stream the calibration
// advanced. Restore rebuilds from it a projector that is
// byte-identical to the one that calibrated, without touching the
// bus. The fault, meter and health fields are zero for a clean
// machine.
type Calibration struct {
	Fit backend.Fit
	// Model is the fit's global α/β summary (Projector.BusModel), for
	// display surfaces.
	Model xfermodel.BusModel
	// BusState is the bus noise-stream state right after calibration.
	BusState uint64
	// Faults is the fault-wrapped bus's stream position after
	// calibration.
	Faults fault.State
	// MeterState is the meter's jitter-stream position after
	// calibration.
	MeterState uint64
	// Health is the resilient calibration's health record.
	Health *xfermodel.Health
}

// New resolves opts.Backend against the backend registry, calibrates
// it on m, and returns a ready projector. If m has armed faults, the
// calibration transfers go through the fault-wrapped bus and the
// resilient meter, and every later measurement does too.
func New(ctx context.Context, m *Machine, opts Options) (*Projector, error) {
	p, b, err := prepare(m, opts.Backend, opts.Memory)
	if err != nil {
		return nil, err
	}
	cfg := xfermodel.DefaultCalibration()
	cfg.Kind = opts.Memory
	comp := backend.Components{Bus: m.Bus, Arch: m.GPUArch, Seed: m.Seed}
	if m.Faults != nil {
		comp.Meter, comp.Source = p.meter, m.Faults.Bus
	}
	inst, fit, err := b.Calibrate(ctx, comp, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: PCIe calibration failed: %w", err)
	}
	p.inst = inst
	p.cal = Calibration{Fit: fit, Model: inst.Linear, BusState: m.Bus.NoiseState(), Health: inst.Health}
	if m.Faults != nil {
		p.cal.Faults = m.Faults.Bus.State()
		p.cal.MeterState = p.meter.State()
	}
	return p, nil
}

// Restore rebuilds a projector from a Calibration without performing
// any calibration transfers: it fast-forwards m's bus (and, when m
// has armed faults, its fault-wrapped bus and a fresh meter) to where
// the calibration left them. m must be a fresh machine at the
// calibration's seed, armed with the same plan or none.
func Restore(m *Machine, cal Calibration) (*Projector, error) {
	p, b, err := prepare(m, cal.Fit.Backend, cal.Fit.Kind)
	if err != nil {
		return nil, err
	}
	if (m.Faults != nil) != (cal.Health != nil) {
		return nil, errdefs.Invalidf("core: calibration and machine disagree on fault injection")
	}
	inst, err := b.Restore(cal.Fit)
	if err != nil {
		return nil, err
	}
	p.inst, p.cal = inst, cal
	m.Bus.SetNoiseState(cal.BusState)
	if m.Faults != nil {
		m.Faults.Bus.SetState(cal.Faults)
		p.meter.SetState(cal.MeterState)
	}
	return p, nil
}

// prepare is the part New and Restore share: argument checks,
// backend resolution, and the machine's meter and surfaces.
func prepare(m *Machine, name string, kind pcie.MemoryKind) (*Projector, backend.Backend, error) {
	if m == nil {
		return nil, nil, errdefs.Invalidf("core: projector with nil machine")
	}
	if !kind.Valid() {
		return nil, nil, errdefs.Invalidf("core: invalid memory kind %d", kind)
	}
	b, err := backend.Get(name)
	if err != nil {
		return nil, nil, err
	}
	p := &Projector{m: m, kind: kind, backendName: b.Name(), surf: m.Faults}
	cfg := measure.DefaultConfig()
	if p.surf == nil {
		// The empty plan is a strict pass-through: it draws nothing.
		cfg, p.surf = measure.Config{Runs: MeasureRuns}, fault.NewSet(fault.Plan{}, m.Bus, m.GPU, m.CPU)
	}
	if p.meter, err = measure.New(cfg); err != nil {
		return nil, nil, err
	}
	return p, b, nil
}

// Calibration returns the projector's calibration in the portable
// form Restore consumes.
func (p *Projector) Calibration() Calibration { return p.cal }

// BusModel returns the calibrated global α/β transfer summary. For
// backends that predict with a richer structure (piecewise segments),
// this is the equivalent two-point summary they report alongside it.
func (p *Projector) BusModel() xfermodel.BusModel { return p.inst.Linear }

// Backend returns the name of the prediction backend this projector
// dispatches through.
func (p *Projector) Backend() string { return p.backendName }

// Machine returns the underlying machine.
func (p *Projector) Machine() *Machine { return p.m }

// Health returns the calibration health record of a resilient
// projector, or nil for the raw pipeline.
func (p *Projector) Health() *xfermodel.Health { return p.cal.Health }

// degradable reports whether a measurement failure should be absorbed
// by the degradation ladder (transient exhaustion, simulated
// deadline) rather than propagated (cancellation, invalid input).
func degradable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return errdefs.IsTransient(err) || errors.Is(err, errdefs.ErrMeasureTimeout)
}

// Evaluate runs the full GROPHECY++ pipeline on one workload:
// transformation exploration and kernel projection, data usage
// analysis, transfer projection — and the corresponding measurements
// on the simulated hardware. Every measurement checks ctx before
// each sample. A resilient projector additionally
// degrades gracefully on absorbed failures and records every fallback
// in Report.Degradations.
//
// The evaluation runs through the staged engine (see engine.go):
// datausage → kernels → transfers → cpu → assemble, composed by
// DefaultEngine. Tracing: when the context carries a trace.Tracer,
// the evaluation opens an "evaluate" span whose simulated clock
// advances by exactly the *predicted* GPU time of each kernel (all
// iterations) and each transfer — so the span's duration equals
// Report.PredTotalGPU() and the trace is the projected GPU timeline.
// Analysis, exploration, and measurement appear as zero-duration
// child spans whose attributes carry the interesting counts
// (candidates, samples, retries, simulated measurement cost).
func (p *Projector) Evaluate(ctx context.Context, w Workload) (Report, error) {
	return DefaultEngine().Evaluate(ctx, p, w)
}

// projectKernel runs the transformation exploration and kernel-time
// projection for one kernel through the configured backend.
func (p *Projector) projectKernel(ctx context.Context, k *skeleton.Kernel) (transform.Variant, perfmodel.Projection, error) {
	return p.inst.Kernel.ProjectKernel(ctx, k, p.m.GPUArch)
}

// predictTransfer prices one planned transfer through the configured
// backend's transfer predictor.
func (p *Projector) predictTransfer(tr datausage.Transfer) (float64, error) {
	return p.inst.Transfer.PredictTransfer(busDir(tr), p.kind, tr.Bytes())
}

// busDir is the bus direction a planned transfer moves data in.
func busDir(tr datausage.Transfer) pcie.Direction {
	if tr.Dir == datausage.Download {
		return pcie.DeviceToHost
	}
	return pcie.HostToDevice
}

// measureKernel measures one kernel's per-invocation time, degrading
// to the analytical prediction. It simulates the kernel once and
// samples launches of that base time.
func (p *Projector) measureKernel(ctx context.Context, name string, ch perfmodel.Characteristics, predicted float64, notes *[]string) (float64, error) {
	ctx, span := trace.Start(ctx, "measure.kernel", trace.Int("runs", MeasureRuns))
	defer span.End()
	base, err := p.m.GPU.BaseTime(ch)
	if err != nil {
		return 0, err
	}
	res, err := p.meter.Sample(ctx, func() (float64, error) { return p.surf.GPU.Launch(base) })
	if err != nil {
		return degrade(ctx, "kernel", name, res, err, "analytical prediction",
			func() (float64, error) { return predicted, nil }, notes)
	}
	return res.Value, nil
}

// measureTransfer measures one transfer, degrading to the calibrated
// model's prediction.
func (p *Projector) measureTransfer(ctx context.Context, tr datausage.Transfer, predicted float64, notes *[]string) (float64, error) {
	ctx, span := trace.Start(ctx, "measure.transfer", trace.Int("runs", MeasureRuns))
	defer span.End()
	res, err := p.meter.MeasureTransfer(ctx, p.surf.Bus, busDir(tr), p.kind, tr.Bytes())
	if err != nil {
		return degrade(ctx, "transfer", tr, res, err, "model prediction",
			func() (float64, error) { return predicted, nil }, notes)
	}
	return res.Value, nil
}

// measureCPU measures the per-iteration CPU baseline, degrading to
// the noiseless model time.
func (p *Projector) measureCPU(ctx context.Context, w cpumodel.Workload, notes *[]string) (float64, error) {
	ctx, span := trace.Start(ctx, "measure.cpu", trace.Int("runs", MeasureRuns))
	defer span.End()
	res, err := p.meter.Sample(ctx, func() (float64, error) { return p.surf.CPU.Run(w) })
	if err != nil {
		return degrade(ctx, "CPU baseline", nil, res, err, "noiseless model time",
			func() (float64, error) { return p.m.CPU.BaseTime(w) }, notes)
	}
	return res.Value, nil
}

// degrade is the degradation ladder every measurement walks when its
// protocol fails with err: keep the partial estimate when res has
// samples, else use fallback (described as using), else
// propagate err when it is not degradable. kind names what was
// measured ("kernel", "transfer", "CPU baseline"); name, when non-nil,
// identifies which one (a kernel name, a datausage.Transfer) and is
// formatted only here, once a note is written. Each rung appends one
// note and logs one warning.
func degrade(ctx context.Context, kind string, name any, res measure.Result, err error, using string, fallback func() (float64, error), notes *[]string) (float64, error) {
	if !degradable(ctx, err) {
		return 0, err
	}
	subject, attrs := kind, []any{}
	if name != nil {
		label := fmt.Sprint(name)
		subject += " " + label
		attrs = append(attrs, kind, label)
	}
	if res.Samples > 0 {
		*notes = append(*notes, fmt.Sprintf(
			"%s: measurement cut short (%d samples kept): %v", subject, res.Samples, err))
		obs.Log(ctx).Warn(kind+" measurement cut short, keeping partial estimate",
			append(attrs, "samples", res.Samples, "retries", res.Retries, "err", err.Error())...)
		return res.Value, nil
	}
	v, ferr := fallback()
	if ferr != nil {
		return 0, ferr
	}
	*notes = append(*notes, fmt.Sprintf(
		"%s: measurement unrecoverable, using %s: %v", subject, using, err))
	obs.Log(ctx).Warn(kind+" measurement unrecoverable, using "+using,
		append(attrs, "retries", res.Retries, "err", err.Error())...)
	return v, nil
}

// EvaluateIterations evaluates the workload at several iteration
// counts, reusing one projector (for the iteration-sweep figures).
func (p *Projector) EvaluateIterations(ctx context.Context, w Workload, iterations []int) ([]Report, error) {
	reports := make([]Report, 0, len(iterations))
	for _, n := range iterations {
		if n < 1 {
			return nil, errdefs.Invalidf("core: iteration count %d below 1", n)
		}
		rep, err := p.Evaluate(ctx, w.WithIterations(n))
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
