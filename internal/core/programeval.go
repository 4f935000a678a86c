package core

import (
	"context"
	"fmt"

	"grophecy/internal/cpumodel"
	"grophecy/internal/datausage"
	"grophecy/internal/pcie"
	"grophecy/internal/program"
	"grophecy/internal/trace"
	"grophecy/internal/transform"
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

// EvaluateProgramCtx is EvaluateProgram with cancellation and — on a
// resilient projector — the same degradation ladder as EvaluateCtx.
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

	rep := ProgramReport{Name: prog.Name, Resilient: p.meter != nil}
	if p.cal.Health != nil {
		for _, d := range p.cal.Health.Degradations {
			rep.Degradations = append(rep.Degradations, "calibration: "+d)
		}
	}
	ctx, espan := trace.Start(ctx, "evaluate.program",
		trace.String("program", prog.Name),
		trace.Int("phases", int64(len(prog.Phases))))
	defer espan.End()
	for i, ph := range prog.Phases {
		if err := ctx.Err(); err != nil {
			return ProgramReport{}, err
		}
		phctx, phspan := trace.Start(ctx, fmt.Sprintf("phase %d", i+1))
		var pr PhaseReport
		for _, k := range ph.Seq.Kernels {
			kctx, kspan := trace.Start(phctx, "kernel "+k.Name)
			variant, proj, err := transform.BestCtx(kctx, k, p.m.GPUArch)
			if err != nil {
				kspan.End()
				phspan.End()
				return ProgramReport{}, fmt.Errorf("core: phase %d: %w", i, err)
			}
			measured, err := p.measureKernel(kctx, k.Name, variant.Ch, proj.Time, &rep.Degradations)
			if err != nil {
				kspan.End()
				phspan.End()
				return ProgramReport{}, fmt.Errorf("core: phase %d kernel %q: %w", i, k.Name, err)
			}
			pr.Kernels = append(pr.Kernels, KernelResult{
				Kernel: k.Name, Variant: variant,
				Predicted: proj.Time, Measured: measured,
			})
			iters := float64(ph.Seq.Iterations)
			pr.PredKernelTime += proj.Time * iters
			pr.MeasKernelTime += measured * iters
			kspan.Advance(proj.Time * iters)
			kspan.End()
		}
		phasePlan := plan.Phases[i]
		for _, tr := range append(append([]datausage.Transfer(nil),
			phasePlan.Uploads...), phasePlan.Downloads...) {
			dir := pcie.HostToDevice
			if tr.Dir == datausage.Download {
				dir = pcie.DeviceToHost
			}
			tctx, tspan := trace.Start(phctx, "transfer "+tr.String(),
				trace.Int("bytes", tr.Bytes()))
			pred, err := p.inst.Linear.Predict(dir, tr.Bytes())
			if err != nil {
				tspan.End()
				phspan.End()
				return ProgramReport{}, err
			}
			meas, err := p.measureTransfer(tctx, tr.String(), dir, tr.Bytes(), pred, &rep.Degradations)
			if err != nil {
				tspan.End()
				phspan.End()
				return ProgramReport{}, err
			}
			pr.Transfers = append(pr.Transfers, TransferResult{
				Transfer: tr, Predicted: pred, Measured: meas,
			})
			pr.PredTransferTime += pred
			pr.MeasTransferTime += meas
			tspan.Advance(pred)
			tspan.End()
		}
		rep.Phases = append(rep.Phases, pr)
		phspan.SetAttr(trace.Float("pred_kernel_s", pr.PredKernelTime))
		phspan.SetAttr(trace.Float("pred_transfer_s", pr.PredTransferTime))
		phspan.End()

		// Naive comparison: what this phase would transfer without
		// residency tracking.
		naive, err := datausage.Analyze(ph.Seq, ph.Hints)
		if err != nil {
			return ProgramReport{}, err
		}
		for _, tr := range naive.Uploads {
			t, err := p.inst.Linear.Predict(pcie.HostToDevice, tr.Bytes())
			if err != nil {
				return ProgramReport{}, err
			}
			rep.NaiveTransferPred += t
		}
		for _, tr := range naive.Downloads {
			t, err := p.inst.Linear.Predict(pcie.DeviceToHost, tr.Bytes())
			if err != nil {
				return ProgramReport{}, err
			}
			rep.NaiveTransferPred += t
		}
	}

	cpu, err := p.measureCPU(ctx, baseline, &rep.Degradations)
	if err != nil {
		return ProgramReport{}, err
	}
	rep.CPUTime = cpu
	return rep, nil
}
