package core

import (
	"context"
	"fmt"
	"log/slog"

	"grophecy/internal/datausage"
	"grophecy/internal/errdefs"
	"grophecy/internal/obs"
	"grophecy/internal/pcie"
	"grophecy/internal/trace"
)

// The staged projection engine. Evaluate used to be one monolithic
// method; it is now an Engine composing five named stages, each
// carrying its own trace spans, metrics, and degraded-mode notes:
//
//	datausage  - data usage analysis: derive the transfer plan
//	kernels    - per-kernel transformation exploration, analytical
//	             projection, and simulated measurement
//	transfers  - per-transfer model prediction and simulated
//	             measurement
//	cpu        - the CPU baseline measurement
//	assemble   - totals, derived times, degradation accounting
//
// Stages communicate only through the EvalState, so a future stage
// (say, transfer/compute overlap modeling) slots in between transfers
// and assemble without touching the others. DefaultEngine reproduces
// the paper pipeline bit for bit.

// Stage is one named step of the projection pipeline.
type Stage interface {
	// Name identifies the stage in errors and engine listings.
	Name() string
	// Run advances the evaluation, reading from and writing to st.
	Run(ctx context.Context, st *EvalState) error
}

// EvalState threads one workload evaluation through the engine's
// stages. Earlier stages fill fields that later stages consume; the
// Report is assembled incrementally and finalized by the assemble
// stage.
type EvalState struct {
	// Projector is the calibrated pipeline the stages measure through.
	Projector *Projector
	// Workload is the evaluation input.
	Workload Workload
	// Plan is the transfer plan the datausage stage derived.
	Plan datausage.Plan
	// Report accumulates the outcome.
	Report Report

	// cpuPerIter is the measured per-iteration CPU baseline, produced
	// by the cpu stage and totaled by the assemble stage.
	cpuPerIter float64
}

// Engine runs a fixed sequence of stages over one evaluation.
type Engine struct {
	stages []Stage
}

// NewEngine composes stages into an engine. Stage names must be
// non-empty and unique.
func NewEngine(stages ...Stage) (*Engine, error) {
	if len(stages) == 0 {
		return nil, errdefs.Invalidf("core: engine needs at least one stage")
	}
	seen := make(map[string]bool, len(stages))
	for i, s := range stages {
		if s == nil {
			return nil, errdefs.Invalidf("core: stage %d is nil", i)
		}
		name := s.Name()
		if name == "" {
			return nil, errdefs.Invalidf("core: stage %d has an empty name", i)
		}
		if seen[name] {
			return nil, errdefs.Invalidf("core: duplicate stage %q", name)
		}
		seen[name] = true
	}
	return &Engine{stages: append([]Stage(nil), stages...)}, nil
}

// DefaultStages returns the paper pipeline's stage sequence.
func DefaultStages() []Stage {
	return []Stage{analyzeStage{}, kernelStage{}, transferStage{}, cpuStage{}, assembleStage{}}
}

// defaultEngine is shared by every Projector.EvaluateCtx call; it is
// stateless (all per-evaluation state lives in EvalState).
var defaultEngine = func() *Engine {
	e, err := NewEngine(DefaultStages()...)
	if err != nil {
		panic(err)
	}
	return e
}()

// DefaultEngine returns the engine EvaluateCtx uses: the five paper
// stages in order.
func DefaultEngine() *Engine { return defaultEngine }

// StageNames lists the engine's stages in execution order.
func (e *Engine) StageNames() []string {
	names := make([]string, len(e.stages))
	for i, s := range e.stages {
		names[i] = s.Name()
	}
	return names
}

// Evaluate runs the staged pipeline on one workload with the given
// projector. It owns the evaluation-level observability — the
// "evaluate" span whose simulated clock advances by the projected GPU
// time, the start/finish debug lines, the evaluation counter — while
// each stage traces and meters itself. The daemon's one Info record
// per request is its wide event, not these lines.
func (e *Engine) Evaluate(ctx context.Context, p *Projector, w Workload) (Report, error) {
	if p == nil {
		return Report{}, errdefs.Invalidf("core: Evaluate with nil projector")
	}
	if err := w.Validate(); err != nil {
		return Report{}, err
	}
	mEvaluations.Inc()
	ctx = obs.WithWorkload(ctx, w.Name)
	lg := obs.Log(obs.WithPhase(ctx, "evaluate"))
	lg.Debug("projection started",
		"size", w.DataSize,
		"iterations", w.Seq.Iterations,
		"resilient", p.meter != nil)
	ctx, span := trace.Start(ctx, "evaluate",
		trace.String("workload", w.Name),
		trace.String("size", w.DataSize),
		trace.Int("iterations", int64(w.Seq.Iterations)))
	defer span.End()

	st := &EvalState{Projector: p, Workload: w}
	for _, stage := range e.stages {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		// Wall-clock attribution per stage, off the simulated
		// timeline: the stage's own simulated spans nest inside it.
		sctx, wspan := trace.StartWall(ctx, "stage."+stage.Name())
		err := stage.Run(sctx, st)
		wspan.End()
		if err != nil {
			return Report{}, err
		}
	}

	r := st.Report
	if lg.Enabled(ctx, slog.LevelDebug) {
		lg.Debug("projection finished",
			"speedup_full", fmt.Sprintf("%.3g", r.SpeedupFull()),
			"measured_speedup", fmt.Sprintf("%.3g", r.MeasuredSpeedup()),
			"pred_total_gpu_s", fmt.Sprintf("%.3g", r.PredTotalGPU()),
			"degradations", len(r.Degradations))
	}
	return r, nil
}

// analyzeStage derives the transfer plan from the kernel sequence and
// user hints, and opens the report.
type analyzeStage struct{}

func (analyzeStage) Name() string { return "datausage" }

func (analyzeStage) Run(ctx context.Context, st *EvalState) error {
	p, w := st.Projector, st.Workload
	_, aspan := trace.Start(ctx, "datausage.analyze")
	plan, err := datausage.Analyze(w.Seq, w.Hints)
	if err != nil {
		aspan.End()
		return err
	}
	aspan.SetAttr(trace.Int("uploads", int64(len(plan.Uploads))))
	aspan.SetAttr(trace.Int("downloads", int64(len(plan.Downloads))))
	aspan.SetAttr(trace.Int("bytes", plan.TotalBytes()))
	aspan.End()

	st.Plan = plan
	st.Report = Report{
		Name:       w.Name,
		DataSize:   w.DataSize,
		Iterations: w.Seq.Iterations,
		Plan:       plan,
		Resilient:  p.meter != nil,
	}
	if p.cal.Health != nil {
		for _, d := range p.cal.Health.Degradations {
			st.Report.Degradations = append(st.Report.Degradations, "calibration: "+d)
		}
	}
	return nil
}

// kernelStage projects the best variant of each kernel and "measures"
// the hand-coded equivalent on the simulated GPU.
type kernelStage struct{}

func (kernelStage) Name() string { return "kernels" }

func (kernelStage) Run(ctx context.Context, st *EvalState) error {
	p, w := st.Projector, st.Workload
	st.Report.Kernels = make([]KernelResult, 0, len(w.Seq.Kernels))
	for _, k := range w.Seq.Kernels {
		if err := ctx.Err(); err != nil {
			return err
		}
		kctx := obs.WithPhase(ctx, "kernel")
		kctx, kspan := trace.Start(kctx, "kernel "+k.Name)
		variant, proj, err := p.projectKernel(kctx, k)
		if err != nil {
			kspan.End()
			return err
		}
		measured, err := p.measureKernel(kctx, k.Name, variant.Ch, proj.Time, &st.Report.Degradations)
		if err != nil {
			kspan.End()
			return fmt.Errorf("core: measuring kernel %q: %w", k.Name, err)
		}
		st.Report.Kernels = append(st.Report.Kernels, KernelResult{
			Kernel:    k.Name,
			Variant:   variant,
			Predicted: proj.Time,
			Measured:  measured,
		})
		kspan.SetAttr(trace.String("variant", variant.Name))
		kspan.SetAttr(trace.Float("pred_per_invocation_s", proj.Time))
		kspan.SetAttr(trace.Float("meas_per_invocation_s", measured))
		kspan.Advance(proj.Time * float64(w.Seq.Iterations))
		kspan.End()
	}
	return nil
}

// transferStage prices each planned transfer with the calibrated
// linear model and measures it on the simulated bus (pinned memory,
// one transfer per array per direction).
type transferStage struct{}

func (transferStage) Name() string { return "transfers" }

func (transferStage) Run(ctx context.Context, st *EvalState) error {
	p := st.Projector
	st.Report.Transfers = make([]TransferResult, 0, len(st.Plan.Uploads)+len(st.Plan.Downloads))
	for _, group := range [2][]datausage.Transfer{st.Plan.Uploads, st.Plan.Downloads} {
		for _, tr := range group {
			if err := ctx.Err(); err != nil {
				return err
			}
			dir := pcie.HostToDevice
			if tr.Dir == datausage.Download {
				dir = pcie.DeviceToHost
			}
			tctx := obs.WithPhase(ctx, "transfer")
			tctx, tspan := trace.Start(tctx, "transfer "+tr.String(),
				trace.Int("bytes", tr.Bytes()),
				trace.String("dir", tr.Dir.String()))
			pred, err := p.predictTransfer(dir, tr.Bytes())
			if err != nil {
				tspan.End()
				return err
			}
			meas, err := p.measureTransfer(tctx, tr.String(), dir, tr.Bytes(), pred, &st.Report.Degradations)
			if err != nil {
				tspan.End()
				return err
			}
			st.Report.Transfers = append(st.Report.Transfers, TransferResult{
				Transfer:  tr,
				Predicted: pred,
				Measured:  meas,
			})
			tspan.SetAttr(trace.Float("pred_s", pred))
			tspan.SetAttr(trace.Float("meas_s", meas))
			tspan.Advance(pred)
			tspan.End()
		}
	}
	return nil
}

// cpuStage measures the CPU baseline: the same offloaded portion, one
// iteration. Off the projected GPU timeline, so its span consumes no
// simulated time.
type cpuStage struct{}

func (cpuStage) Name() string { return "cpu" }

func (cpuStage) Run(ctx context.Context, st *EvalState) error {
	cctx := obs.WithPhase(ctx, "cpu")
	cctx, cspan := trace.Start(cctx, "cpu.baseline")
	cpuPerIter, err := st.Projector.measureCPU(cctx, st.Workload.CPU, &st.Report.Degradations)
	if err != nil {
		cspan.End()
		return err
	}
	st.cpuPerIter = cpuPerIter
	cspan.SetAttr(trace.Float("per_iteration_s", cpuPerIter))
	cspan.End()
	return nil
}

// assembleStage totals the per-kernel and per-transfer results over
// the iteration count (kernels relaunch each iteration; transfers
// happen once) and accounts the degradations.
type assembleStage struct{}

func (assembleStage) Name() string { return "assemble" }

func (assembleStage) Run(ctx context.Context, st *EvalState) error {
	_, span := trace.Start(ctx, "report.assemble",
		trace.Int("kernels", int64(len(st.Report.Kernels))),
		trace.Int("transfers", int64(len(st.Report.Transfers))))
	defer span.End()
	r := &st.Report
	iters := float64(r.Iterations)
	for _, k := range r.Kernels {
		r.PredKernelTime += k.Predicted * iters
		r.MeasKernelTime += k.Measured * iters
	}
	for _, tr := range r.Transfers {
		r.PredTransferTime += tr.Predicted
		r.MeasTransferTime += tr.Measured
	}
	r.CPUTime = st.cpuPerIter * iters
	mDegradations.Add(int64(len(r.Degradations)))
	return nil
}
