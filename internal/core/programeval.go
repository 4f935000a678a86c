package core

import (
	"context"
	"fmt"

	"grophecy/internal/cpumodel"
	"grophecy/internal/datausage"
	"grophecy/internal/program"
	"grophecy/internal/skeleton"
	"grophecy/internal/trace"
)

// Program-level evaluation: the single-region pipeline of Evaluate,
// generalized over a multi-phase program with GPU-residency-aware
// transfer planning (internal/program). The extra output is the
// comparison against naive per-phase planning, which quantifies how
// much the residency analysis saves.

// PhaseReport is one phase's outcome.
type PhaseReport struct {
	Kernels   []KernelResult
	Transfers []TransferResult
	// PredKernelTime/MeasKernelTime cover the phase's iterations.
	PredKernelTime   float64
	MeasKernelTime   float64
	PredTransferTime float64
	MeasTransferTime float64
}

// ProgramReport aggregates a whole program.
type ProgramReport struct {
	Name   string
	Phases []PhaseReport

	// CPUTime is the measured CPU baseline for the whole program.
	CPUTime float64

	// NaiveTransferPred is what per-phase (residency-blind) planning
	// would have predicted for transfers, for the savings comparison.
	NaiveTransferPred float64

	// Resilient and Degradations mirror Report's fields: set only when
	// the program was evaluated through the resilient measurement layer.
	Resilient    bool     `json:",omitempty"`
	Degradations []string `json:",omitempty"`
}

// Totals sums across phases.
func (r ProgramReport) Totals() (predKernel, measKernel, predXfer, measXfer float64) {
	for _, ph := range r.Phases {
		predKernel += ph.PredKernelTime
		measKernel += ph.MeasKernelTime
		predXfer += ph.PredTransferTime
		measXfer += ph.MeasTransferTime
	}
	return
}

// MeasuredSpeedup is CPU time over measured total GPU time.
func (r ProgramReport) MeasuredSpeedup() float64 {
	_, mk, _, mx := r.Totals()
	return r.CPUTime / (mk + mx)
}

// SpeedupFull is the residency-aware GROPHECY++ prediction.
func (r ProgramReport) SpeedupFull() float64 {
	pk, _, px, _ := r.Totals()
	return r.CPUTime / (pk + px)
}

// ResidencySavings is the fraction of predicted transfer time the
// residency analysis eliminated versus naive per-phase planning.
func (r ProgramReport) ResidencySavings() float64 {
	if r.NaiveTransferPred == 0 {
		return 0
	}
	pk := 0.0
	for _, ph := range r.Phases {
		pk += ph.PredTransferTime
	}
	return 1 - pk/r.NaiveTransferPred
}

// EvaluateProgram runs the full pipeline over a multi-phase program.
// baseline describes one run of the whole program on the CPU.
func (p *Projector) EvaluateProgram(prog *program.Program, baseline cpumodel.Workload) (ProgramReport, error) {
	return p.EvaluateProgramCtx(context.Background(), prog, baseline)
}

// EvaluateProgramCtx is EvaluateProgram with cancellation. Each phase
// runs the engine's kernel and transfer code (kernelResults,
// transferResults) under a "phase N" span, and the baseline runs the
// cpu stage's code, so programs and workloads share one measurement
// protocol, backend and degradation ladder.
func (p *Projector) EvaluateProgramCtx(ctx context.Context, prog *program.Program, baseline cpumodel.Workload) (ProgramReport, error) {
	if err := prog.Validate(); err != nil {
		return ProgramReport{}, err
	}
	if err := baseline.Validate(); err != nil {
		return ProgramReport{}, err
	}
	plan, err := program.Analyze(prog)
	if err != nil {
		return ProgramReport{}, err
	}

	rep := ProgramReport{Name: prog.Name, Resilient: p.m.Faults != nil, Degradations: p.calibrationNotes()}
	ctx, espan := trace.Start(ctx, "evaluate.program",
		trace.String("program", prog.Name),
		trace.Int("phases", int64(len(prog.Phases))))
	defer espan.End()
	for i, ph := range prog.Phases {
		if err := ctx.Err(); err != nil {
			return ProgramReport{}, err
		}
		pr, err := p.evaluatePhase(ctx, i, ph.Seq, plan.Phases[i], &rep.Degradations)
		if err != nil {
			return ProgramReport{}, fmt.Errorf("core: phase %d: %w", i, err)
		}
		rep.Phases = append(rep.Phases, pr)

		// Naive comparison: what this phase would transfer without
		// residency tracking.
		naive, err := datausage.Analyze(ph.Seq, ph.Hints)
		if err != nil {
			return ProgramReport{}, err
		}
		for _, group := range [2][]datausage.Transfer{naive.Uploads, naive.Downloads} {
			for _, tr := range group {
				t, err := p.predictTransfer(tr)
				if err != nil {
					return ProgramReport{}, err
				}
				rep.NaiveTransferPred += t
			}
		}
	}

	if rep.CPUTime, err = p.cpuBaseline(ctx, baseline, &rep.Degradations); err != nil {
		return ProgramReport{}, err
	}
	return rep, nil
}

// evaluatePhase runs phase i's kernels and its planned transfers
// under a "phase N" span and totals them the way the assemble stage
// totals a workload.
func (p *Projector) evaluatePhase(ctx context.Context, i int, seq *skeleton.Sequence, plan program.PhasePlan, notes *[]string) (PhaseReport, error) {
	ctx, span := trace.Start(ctx, fmt.Sprintf("phase %d", i+1))
	defer span.End()
	ks, err := p.kernelResults(ctx, seq, notes)
	if err != nil {
		return PhaseReport{}, err
	}
	trs, err := p.transferResults(ctx, plan.Uploads, plan.Downloads, notes)
	if err != nil {
		return PhaseReport{}, err
	}
	pr := PhaseReport{Kernels: ks, Transfers: trs}
	pr.PredKernelTime, pr.MeasKernelTime, pr.PredTransferTime, pr.MeasTransferTime =
		sumResults(ks, trs, seq.Iterations)
	span.SetAttr(trace.Float("pred_kernel_s", pr.PredKernelTime))
	span.SetAttr(trace.Float("pred_transfer_s", pr.PredTransferTime))
	return pr, nil
}
