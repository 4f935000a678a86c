package core

import (
	"context"
	"math"
	"testing"

	"grophecy/internal/cpumodel"
	"grophecy/internal/datausage"
	"grophecy/internal/skeleton"
)

// testWorkload builds a small stencil workload with transfer-dominated
// behaviour, like the paper's benchmarks.
func testWorkload(n int64, iters int) Workload {
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	k := &skeleton.Kernel{
		Name:  "stencil",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops: 6,
		}},
	}
	return Workload{
		Name:     "TestStencil",
		DataSize: "test",
		Seq: &skeleton.Sequence{
			Name:       "teststencil",
			Kernels:    []*skeleton.Kernel{k},
			Iterations: iters,
		},
		CPU: cpumodel.Workload{
			Name:         "teststencil-cpu",
			Elements:     n * n,
			FlopsPerElem: 6,
			BytesPerElem: 8,
			Regions:      1,
		},
	}
}

func newProjector(t *testing.T) *Projector {
	t.Helper()
	p, err := New(context.Background(), NewMachine(42), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewCalibrates(t *testing.T) {
	p := newProjector(t)
	if !p.BusModel().Valid() {
		t.Error("projector has invalid bus model")
	}
	if p.Machine() == nil {
		t.Error("nil machine")
	}
}

func TestEvaluateBasicReport(t *testing.T) {
	p := newProjector(t)
	rep, err := p.Evaluate(testWorkload(512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "TestStencil" || rep.Iterations != 1 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if len(rep.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(rep.Kernels))
	}
	if len(rep.Transfers) != 2 { // in upload + out download
		t.Fatalf("transfers = %d", len(rep.Transfers))
	}
	for _, kr := range rep.Kernels {
		if kr.Predicted <= 0 || kr.Measured <= 0 {
			t.Errorf("kernel %s: pred %v meas %v", kr.Kernel, kr.Predicted, kr.Measured)
		}
	}
	for _, tr := range rep.Transfers {
		if tr.Predicted <= 0 || tr.Measured <= 0 {
			t.Errorf("transfer %s: pred %v meas %v", tr.Transfer, tr.Predicted, tr.Measured)
		}
	}
	if rep.CPUTime <= 0 {
		t.Errorf("CPU time = %v", rep.CPUTime)
	}
	if rep.MeasTotalGPU() <= 0 || rep.PredTotalGPU() <= 0 {
		t.Error("zero GPU totals")
	}
}

func TestTransferPredictionAccurate(t *testing.T) {
	// The transfer model should predict the simulated bus within a
	// few percent for MB-scale transfers (the paper's 8% average).
	p := newProjector(t)
	rep, err := p.Evaluate(testWorkload(1024, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e := rep.TransferErr(); e > 0.10 {
		t.Errorf("transfer error %v, want < 10%%", e)
	}
}

func TestKernelPredictionReasonable(t *testing.T) {
	p := newProjector(t)
	rep, err := p.Evaluate(testWorkload(1024, 1))
	if err != nil {
		t.Fatal(err)
	}
	if e := rep.KernelErr(); e > 0.5 {
		t.Errorf("kernel error %v, want < 50%%", e)
	}
}

func TestSpeedupIdentities(t *testing.T) {
	p := newProjector(t)
	rep, err := p.Evaluate(testWorkload(512, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.MeasuredSpeedup(); math.Abs(got-rep.CPUTime/(rep.MeasKernelTime+rep.MeasTransferTime)) > 1e-12 {
		t.Errorf("MeasuredSpeedup identity broken: %v", got)
	}
	if rep.SpeedupFull() >= rep.SpeedupKernelOnly() {
		// Adding transfer time can only lower the predicted speedup.
		t.Errorf("full speedup %v not below kernel-only %v",
			rep.SpeedupFull(), rep.SpeedupKernelOnly())
	}
	if pt := rep.PercentTransfer(); pt <= 0 || pt >= 1 {
		t.Errorf("percent transfer = %v", pt)
	}
}

func TestFullPredictionBeatsKernelOnly(t *testing.T) {
	// The paper's headline: adding transfer modeling slashes the
	// speedup prediction error for transfer-dominated workloads.
	p := newProjector(t)
	rep, err := p.Evaluate(testWorkload(1024, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ErrFull() >= rep.ErrKernelOnly() {
		t.Errorf("full error %v not below kernel-only error %v",
			rep.ErrFull(), rep.ErrKernelOnly())
	}
	if rep.ErrFull() > 0.5 {
		t.Errorf("full error %v implausibly large", rep.ErrFull())
	}
}

func TestIterationScaling(t *testing.T) {
	p := newProjector(t)
	one, err := p.Evaluate(testWorkload(512, 1))
	if err != nil {
		t.Fatal(err)
	}
	ten, err := p.Evaluate(testWorkload(512, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Transfers are iteration-independent; kernels scale ~10x.
	if ratio := ten.MeasTransferTime / one.MeasTransferTime; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("transfer time scaled by %v across iterations", ratio)
	}
	if ratio := ten.MeasKernelTime / one.MeasKernelTime; ratio < 9 || ratio > 11 {
		t.Errorf("kernel time scaled by %v, want ~10", ratio)
	}
	// Speedup grows with iterations as transfer amortizes.
	if ten.MeasuredSpeedup() <= one.MeasuredSpeedup() {
		t.Errorf("speedup did not grow with iterations: %v vs %v",
			ten.MeasuredSpeedup(), one.MeasuredSpeedup())
	}
}

func TestPredictionsConvergeWithIterations(t *testing.T) {
	// Figs 8/10/12: with and without transfer time converge as
	// iterations grow.
	p := newProjector(t)
	gap := func(iters int) float64 {
		rep, err := p.Evaluate(testWorkload(512, iters))
		if err != nil {
			t.Fatal(err)
		}
		return rep.SpeedupKernelOnly() - rep.SpeedupFull()
	}
	if g1, g100 := gap(1), gap(100); g100 >= g1 {
		t.Errorf("prediction gap did not shrink: %v at 1 iter, %v at 100", g1, g100)
	}
}

func TestLimitSpeedups(t *testing.T) {
	p := newProjector(t)
	rep, err := p.Evaluate(testWorkload(512, 4))
	if err != nil {
		t.Fatal(err)
	}
	meas, pred := rep.LimitSpeedups()
	if meas <= 0 || pred <= 0 {
		t.Errorf("limit speedups = %v, %v", meas, pred)
	}
	// The limit exceeds any finite-iteration measured speedup.
	if meas <= rep.MeasuredSpeedup() {
		t.Errorf("limit speedup %v not above finite-iteration %v",
			meas, rep.MeasuredSpeedup())
	}
}

func TestEvaluateIterations(t *testing.T) {
	p := newProjector(t)
	reps, err := p.EvaluateIterations(testWorkload(256, 1), []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("reports = %d", len(reps))
	}
	for i, want := range []int{1, 4, 16} {
		if reps[i].Iterations != want {
			t.Errorf("report %d iterations = %d, want %d", i, reps[i].Iterations, want)
		}
	}
	if _, err := p.EvaluateIterations(testWorkload(256, 1), []int{0}); err == nil {
		t.Error("zero iteration count accepted")
	}
}

func TestEvaluateRejectsInvalidWorkload(t *testing.T) {
	p := newProjector(t)
	if _, err := p.Evaluate(Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
	w := testWorkload(64, 1)
	w.CPU = cpumodel.Workload{}
	if _, err := p.Evaluate(w); err == nil {
		t.Error("workload with invalid CPU side accepted")
	}
}

func TestWorkloadWithIterationsDoesNotMutate(t *testing.T) {
	w := testWorkload(64, 1)
	w2 := w.WithIterations(7)
	if w.Seq.Iterations != 1 || w2.Seq.Iterations != 7 {
		t.Error("WithIterations mutated original or failed to set copy")
	}
}

func TestDeterministicEvaluation(t *testing.T) {
	p1 := newProjector(t)
	p2 := newProjector(t)
	r1, err := p1.Evaluate(testWorkload(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Evaluate(testWorkload(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeasKernelTime != r2.MeasKernelTime ||
		r1.MeasTransferTime != r2.MeasTransferTime ||
		r1.CPUTime != r2.CPUTime {
		t.Error("same-seed machines produced different measurements")
	}
}

func TestPlanRecordedInReport(t *testing.T) {
	p := newProjector(t)
	rep, err := p.Evaluate(testWorkload(256, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Plan.Uploads) != 1 || len(rep.Plan.Downloads) != 1 {
		t.Errorf("plan = %+v", rep.Plan)
	}
	if rep.Plan.Uploads[0].Dir != datausage.Upload {
		t.Error("plan direction wrong")
	}
}
