package core

import (
	"context"
	"testing"

	"grophecy/internal/cpumodel"
	"grophecy/internal/program"
	"grophecy/internal/skeleton"
)

// chainProgram builds nPhases in-place updates of one image with no
// CPU involvement between phases — the best case for residency.
func chainProgram(nPhases int, n int64) (*program.Program, cpumodel.Workload) {
	img := skeleton.NewArray("img", skeleton.Float32, n, n)
	var phases []program.Phase
	for i := 0; i < nPhases; i++ {
		k := &skeleton.Kernel{
			Name:  "step" + string(rune('a'+i)),
			Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
			Stmts: []skeleton.Statement{{
				Accesses: []skeleton.Access{
					skeleton.LoadOf(img, skeleton.Idx("i"), skeleton.Idx("j")),
					skeleton.StoreOf(img, skeleton.Idx("i"), skeleton.Idx("j")),
				},
				Flops: 6,
			}},
		}
		phases = append(phases, program.Phase{
			Seq: &skeleton.Sequence{
				Name: k.Name, Kernels: []*skeleton.Kernel{k}, Iterations: 1,
			},
		})
	}
	baseline := cpumodel.Workload{
		Name: "chain-cpu", Elements: n * n * int64(nPhases),
		FlopsPerElem: 6, BytesPerElem: 8, Regions: nPhases,
	}
	return &program.Program{Name: "chain", Phases: phases}, baseline
}

func TestEvaluateProgramBasics(t *testing.T) {
	p := newProjector(t)
	prog, baseline := chainProgram(4, 512)
	rep, err := p.EvaluateProgram(context.Background(), prog, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("phases = %d", len(rep.Phases))
	}
	pk, mk, px, mx := rep.Totals()
	if pk <= 0 || mk <= 0 || px <= 0 || mx <= 0 {
		t.Errorf("totals = %v %v %v %v", pk, mk, px, mx)
	}
	if rep.CPUTime <= 0 {
		t.Error("no CPU time")
	}
	if rep.MeasuredSpeedup() <= 0 || rep.SpeedupFull() <= 0 {
		t.Error("bad speedups")
	}
}

func TestEvaluateProgramResidencySavings(t *testing.T) {
	// Four chained phases: naive planning moves the image 4x each
	// way; residency moves it once each way -> 75% transfer savings.
	p := newProjector(t)
	prog, baseline := chainProgram(4, 512)
	rep, err := p.EvaluateProgram(context.Background(), prog, baseline)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.ResidencySavings()
	if s < 0.70 || s > 0.80 {
		t.Errorf("residency savings = %v, want ~0.75", s)
	}
	// Only the first phase uploads; only the last downloads.
	if len(rep.Phases[0].Transfers) != 1 {
		t.Errorf("phase 1 transfers = %d, want 1 upload", len(rep.Phases[0].Transfers))
	}
	for i := 1; i < 3; i++ {
		if len(rep.Phases[i].Transfers) != 0 {
			t.Errorf("phase %d transfers = %d, want 0", i+1, len(rep.Phases[i].Transfers))
		}
	}
	if len(rep.Phases[3].Transfers) != 1 {
		t.Errorf("last phase transfers = %d, want 1 download", len(rep.Phases[3].Transfers))
	}
}

func TestEvaluateProgramSpeedupBenefitsFromResidency(t *testing.T) {
	// The multi-phase speedup with residency should beat what four
	// independent single-phase evaluations would achieve.
	p := newProjector(t)
	prog, baseline := chainProgram(4, 512)
	rep, err := p.EvaluateProgram(context.Background(), prog, baseline)
	if err != nil {
		t.Fatal(err)
	}
	// Naive total GPU time: same kernels, naive transfers.
	_, mk, _, mx := rep.Totals()
	naiveGPU := mk + rep.NaiveTransferPred // pred as proxy for naive measured
	residencyGPU := mk + mx
	if residencyGPU >= naiveGPU {
		t.Errorf("residency GPU time %v not below naive %v", residencyGPU, naiveGPU)
	}
}

func TestEvaluateProgramRejectsBadInputs(t *testing.T) {
	p := newProjector(t)
	if _, err := p.EvaluateProgram(context.Background(), &program.Program{}, cpumodel.Workload{}); err == nil {
		t.Error("invalid program accepted")
	}
	prog, _ := chainProgram(2, 64)
	if _, err := p.EvaluateProgram(context.Background(), prog, cpumodel.Workload{}); err == nil {
		t.Error("invalid baseline accepted")
	}
}
