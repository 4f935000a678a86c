package core

import (
	"context"
	"testing"
	"testing/quick"

	"grophecy/internal/cpumodel"
	"grophecy/internal/gpu"
	"grophecy/internal/pcie"
	"grophecy/internal/skeleton"
)

// Integration tests: the full pipeline across architectures and
// randomized workloads.

func TestCrossArchitectureProjection(t *testing.T) {
	// The same workload on all three GPU presets: every pipeline
	// stage must work, and the projected kernel time should improve
	// on newer silicon while transfers (same bus) stay put.
	w := testWorkload(1024, 1)
	type result struct {
		name             string
		kernel, transfer float64
	}
	var results []result
	for _, arch := range gpu.Presets() {
		m := NewMachineWith(arch, cpumodel.XeonE5405(), pcie.DefaultConfig(), 11)
		p, err := New(context.Background(), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Evaluate(context.Background(), w)
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		results = append(results, result{arch.Name, rep.PredKernelTime, rep.PredTransferTime})
	}
	// FX5600 -> C2050 must speed up the kernel.
	if results[2].kernel >= results[0].kernel {
		t.Errorf("C2050 kernel (%v) not faster than FX5600 (%v)",
			results[2].kernel, results[0].kernel)
	}
	// Transfers are bus-bound: within noise across GPUs.
	for _, r := range results[1:] {
		ratio := r.transfer / results[0].transfer
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: transfer time ratio %v, should be GPU-independent", r.name, ratio)
		}
	}
}

// randomWorkload builds a valid single-kernel workload from fuzzed
// parameters.
func randomWorkload(nRaw uint16, flops, loads uint8, irregular bool) Workload {
	n := int64(nRaw)%4096 + 32
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	accs := []skeleton.Access{skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j"))}
	for l := 0; l < int(loads%5)+1; l++ {
		idx := skeleton.IdxPlus("j", int64(l))
		if irregular && l == 0 {
			accs = append(accs, skeleton.LoadOf(in, skeleton.IdxIrregular(), idx))
		} else {
			accs = append(accs, skeleton.LoadOf(in, skeleton.Idx("i"), idx))
		}
	}
	k := &skeleton.Kernel{
		Name:  "fuzz",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{Accesses: accs, Flops: int(flops) + 1}},
	}
	return Workload{
		Name:     "Fuzz",
		DataSize: "fuzz",
		Seq:      &skeleton.Sequence{Name: "fuzz", Kernels: []*skeleton.Kernel{k}, Iterations: 1},
		CPU: cpumodel.Workload{
			Name: "fuzz-cpu", Elements: n * n,
			FlopsPerElem: float64(flops) + 1, BytesPerElem: 8, Regions: 1,
		},
	}
}

func TestQuickPipelineInvariants(t *testing.T) {
	p := newProjector(t)
	prop := func(nRaw uint16, flops, loads uint8, irregular bool) bool {
		rep, err := p.Evaluate(context.Background(), randomWorkload(nRaw, flops, loads, irregular))
		if err != nil {
			return false
		}
		// Invariants of any valid report:
		if rep.PredKernelTime <= 0 || rep.MeasKernelTime <= 0 {
			return false
		}
		if rep.PredTransferTime <= 0 || rep.MeasTransferTime <= 0 {
			return false
		}
		if rep.CPUTime <= 0 {
			return false
		}
		// Adding transfer time can only shrink the predicted speedup.
		if rep.SpeedupFull() > rep.SpeedupKernelOnly() {
			return false
		}
		// Percent transfer is a proper fraction.
		if pt := rep.PercentTransfer(); pt <= 0 || pt >= 1 {
			return false
		}
		// The plan moves at least input and output once.
		return len(rep.Plan.Uploads) >= 1 && len(rep.Plan.Downloads) >= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementProtocolAveragesTenRuns(t *testing.T) {
	// The constant itself is part of the methodology (§IV-A).
	if MeasureRuns != 10 {
		t.Fatalf("MeasureRuns = %d, want 10", MeasureRuns)
	}
}

func TestSeededMachinesAreIndependent(t *testing.T) {
	w := testWorkload(256, 1)
	p1, err := New(context.Background(), NewMachine(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(context.Background(), NewMachine(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Measured values differ (independent noise)...
	if r1.MeasKernelTime == r2.MeasKernelTime && r1.MeasTransferTime == r2.MeasTransferTime {
		t.Error("different seeds produced identical measurements")
	}
	// ...but stay close: the underlying hardware is identical.
	for _, pair := range [][2]float64{
		{r1.MeasKernelTime, r2.MeasKernelTime},
		{r1.MeasTransferTime, r2.MeasTransferTime},
		{r1.CPUTime, r2.CPUTime},
	} {
		ratio := pair[0] / pair[1]
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("cross-seed ratio %v outside noise band", ratio)
		}
	}
}
