package core

import (
	"context"
	"fmt"
	"log/slog"

	"grophecy/internal/cpumodel"
	"grophecy/internal/datausage"
	"grophecy/internal/errdefs"
	"grophecy/internal/obs"
	"grophecy/internal/skeleton"
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

// defaultEngine is shared by every Projector.Evaluate call; it is
// stateless (all per-evaluation state lives in EvalState).
var defaultEngine = func() *Engine {
	e, err := NewEngine(DefaultStages()...)
	if err != nil {
		panic(err)
	}
	return e
}()

// DefaultEngine returns the engine Evaluate uses: the five paper
// stages in order.
func DefaultEngine() *Engine { return defaultEngine }

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
		"resilient", p.m.Faults != nil)
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
		Name:         w.Name,
		DataSize:     w.DataSize,
		Iterations:   w.Seq.Iterations,
		Plan:         plan,
		Resilient:    p.m.Faults != nil,
		Degradations: p.calibrationNotes(),
	}
	return nil
}

// calibrationNotes opens a report's degradation notes with the
// calibration ladder's rungs, or returns nil for a clean calibration.
func (p *Projector) calibrationNotes() []string {
	if p.cal.Health == nil {
		return nil
	}
	var notes []string
	for _, d := range p.cal.Health.Degradations {
		notes = append(notes, "calibration: "+d)
	}
	return notes
}

// kernelStage projects the best variant of each kernel and "measures"
// the hand-coded equivalent on the simulated GPU.
type kernelStage struct{}

func (kernelStage) Name() string { return "kernels" }

func (kernelStage) Run(ctx context.Context, st *EvalState) error {
	ks, err := st.Projector.kernelResults(ctx, st.Workload.Seq, &st.Report.Degradations)
	st.Report.Kernels = ks
	return err
}

// kernelResults projects and measures each kernel of seq, in order,
// under one "kernel <name>" span each that advances the simulated
// clock by the kernel's predicted time over all iterations. Program
// phases run it too.
func (p *Projector) kernelResults(ctx context.Context, seq *skeleton.Sequence, notes *[]string) ([]KernelResult, error) {
	out := make([]KernelResult, 0, len(seq.Kernels))
	for _, k := range seq.Kernels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		kctx := obs.WithPhase(ctx, "kernel")
		kctx, kspan := trace.Start(kctx, "kernel "+k.Name)
		variant, proj, err := p.projectKernel(kctx, k)
		if err != nil {
			kspan.End()
			return nil, err
		}
		measured, err := p.measureKernel(kctx, k.Name, variant.Ch, proj.Time, notes)
		if err != nil {
			kspan.End()
			return nil, fmt.Errorf("core: measuring kernel %q: %w", k.Name, err)
		}
		out = append(out, KernelResult{
			Kernel:    k.Name,
			Variant:   variant,
			Predicted: proj.Time,
			Measured:  measured,
		})
		kspan.SetAttr(trace.String("variant", variant.Name))
		kspan.SetAttr(trace.Float("pred_per_invocation_s", proj.Time))
		kspan.SetAttr(trace.Float("meas_per_invocation_s", measured))
		kspan.Advance(proj.Time * float64(seq.Iterations))
		kspan.End()
	}
	return out, nil
}

// transferStage prices each planned transfer with the backend's
// transfer model and measures it on the simulated bus (one transfer
// per array per direction).
type transferStage struct{}

func (transferStage) Name() string { return "transfers" }

func (transferStage) Run(ctx context.Context, st *EvalState) error {
	trs, err := st.Projector.transferResults(ctx, st.Plan.Uploads, st.Plan.Downloads, &st.Report.Degradations)
	st.Report.Transfers = trs
	return err
}

// transferResults prices and measures the uploads, then the
// downloads, under one "transfer <desc>" span each that advances the
// simulated clock by the predicted time. Program phases run it too.
func (p *Projector) transferResults(ctx context.Context, uploads, downloads []datausage.Transfer, notes *[]string) ([]TransferResult, error) {
	out := make([]TransferResult, 0, len(uploads)+len(downloads))
	for _, group := range [2][]datausage.Transfer{uploads, downloads} {
		for _, tr := range group {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tctx := obs.WithPhase(ctx, "transfer")
			tctx, tspan := trace.Start(tctx, "transfer "+tr.String(),
				trace.Int("bytes", tr.Bytes()),
				trace.String("dir", tr.Dir.String()))
			pred, err := p.predictTransfer(tr)
			if err != nil {
				tspan.End()
				return nil, err
			}
			meas, err := p.measureTransfer(tctx, tr, pred, notes)
			if err != nil {
				tspan.End()
				return nil, err
			}
			out = append(out, TransferResult{
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
	return out, nil
}

// cpuStage measures the CPU baseline: the same offloaded portion, one
// iteration.
type cpuStage struct{}

func (cpuStage) Name() string { return "cpu" }

func (cpuStage) Run(ctx context.Context, st *EvalState) error {
	var err error
	st.cpuPerIter, err = st.Projector.cpuBaseline(ctx, st.Workload.CPU, &st.Report.Degradations)
	return err
}

// cpuBaseline measures one run of w on the CPU under a "cpu.baseline"
// span. Off the projected GPU timeline, so the span consumes no
// simulated time. Programs measure their whole-program baseline with
// it.
func (p *Projector) cpuBaseline(ctx context.Context, w cpumodel.Workload, notes *[]string) (float64, error) {
	cctx := obs.WithPhase(ctx, "cpu")
	cctx, cspan := trace.Start(cctx, "cpu.baseline")
	defer cspan.End()
	t, err := p.measureCPU(cctx, w, notes)
	if err != nil {
		return 0, err
	}
	cspan.SetAttr(trace.Float("per_iteration_s", t))
	return t, nil
}

// assembleStage totals the per-kernel and per-transfer results over
// the iteration count and accounts the degradations.
type assembleStage struct{}

func (assembleStage) Name() string { return "assemble" }

func (assembleStage) Run(ctx context.Context, st *EvalState) error {
	_, span := trace.Start(ctx, "report.assemble",
		trace.Int("kernels", int64(len(st.Report.Kernels))),
		trace.Int("transfers", int64(len(st.Report.Transfers))))
	defer span.End()
	r := &st.Report
	r.PredKernelTime, r.MeasKernelTime, r.PredTransferTime, r.MeasTransferTime =
		sumResults(r.Kernels, r.Transfers, r.Iterations)
	r.CPUTime = st.cpuPerIter * float64(r.Iterations)
	mDegradations.Add(int64(len(r.Degradations)))
	return nil
}

// sumResults totals kernel results over iters launches each (kernels
// relaunch every iteration) and transfer results once (transfers
// happen once), each in result order.
func sumResults(ks []KernelResult, trs []TransferResult, iters int) (predKernel, measKernel, predXfer, measXfer float64) {
	n := float64(iters)
	for _, k := range ks {
		predKernel += k.Predicted * n
		measKernel += k.Measured * n
	}
	for _, tr := range trs {
		predXfer += tr.Predicted
		measXfer += tr.Measured
	}
	return
}
