package measure

import (
	"context"
	"math"
	"testing"

	"grophecy/internal/cpumodel"
	"grophecy/internal/fault"
	"grophecy/internal/gpu"
	"grophecy/internal/gpusim"
	"grophecy/internal/pcie"
	"grophecy/internal/perfmodel"
	"grophecy/internal/trace"
	"grophecy/internal/units"
)

// rig is one machine's three raw measurement surfaces.
type rig struct {
	gpu *gpusim.Sim
	cpu *cpumodel.Sim
	bus *pcie.Bus
}

func newRig() rig {
	return rig{
		gpu: gpusim.New(gpu.QuadroFX5600(), gpusim.DefaultConfig()),
		cpu: cpumodel.New(cpumodel.XeonE5405(), cpumodel.DefaultConfig()),
		bus: pcie.NewBus(pcie.DefaultConfig()),
	}
}

// TestPaperProtocolMatchesMeasureMean pins the paper's protocol as a
// Meter: Config{Runs: 10} over each pass-through surface (the empty
// fault plan, as a clean projector uses) equals the raw ten-run mean
// bit for bit, leaves every noise stream where the raw mean leaves
// it, and records no span attribute or measure_* increment. A
// DefaultConfig meter still records both.
func TestPaperProtocolMatchesMeasureMean(t *testing.T) {
	ch := perfmodel.Characteristics{
		Name: "streaming", Threads: 1 << 20, BlockSize: 256,
		CompInstsPerThread: 20, GlobalLoadsPerThread: 2, GlobalStoresPerThread: 1,
		TransactionsPerRequest: 2, BytesPerThread: 12, RegsPerThread: 10,
	}
	w := cpumodel.Workload{Name: "stencil", Elements: 1 << 20, FlopsPerElem: 12,
		BytesPerElem: 24, TranscendentalsPerElem: 2, Regions: 1}
	size := 3 * units.MB

	ref, got := newRig(), newRig()
	surf := fault.NewSet(fault.Plan{}, got.bus, got.gpu, got.cpu)
	base, err := got.gpu.BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		// want is the raw ten-run mean on ref; sample is one
		// observation of got's surface; next is one more raw
		// observation, which matches on both rigs only if their
		// noise streams sit at the same position.
		want   func() (float64, error)
		sample func() (float64, error)
		next   func(r rig) (float64, error)
	}{
		{"gpu",
			func() (float64, error) { return ref.gpu.MeasureMean(ch, 10) },
			func() (float64, error) { return surf.GPU.Launch(base) },
			func(r rig) (float64, error) { return r.gpu.Run(ch) }},
		{"bus",
			func() (float64, error) { return ref.bus.MeasureMean(pcie.HostToDevice, pcie.Pinned, size, 10) },
			func() (float64, error) { return surf.Bus.Transfer(pcie.HostToDevice, pcie.Pinned, size) },
			func(r rig) (float64, error) { return r.bus.Transfer(pcie.HostToDevice, pcie.Pinned, size) }},
		{"cpu",
			func() (float64, error) {
				var sum float64
				for i := 0; i < 10; i++ {
					t, err := ref.cpu.Run(w)
					if err != nil {
						return 0, err
					}
					sum += t
				}
				return sum / 10, nil
			},
			func() (float64, error) { return surf.CPU.Run(w) },
			func(r rig) (float64, error) { return r.cpu.Run(w) }},
	}

	ctx, span := trace.Start(trace.With(context.Background(), trace.New("test")), "measure")
	samples, sims := mSamples.Value(), mSimSeconds.Count()
	paper := mustMeter(t, Config{Runs: 10})
	for _, c := range cases {
		want, err := c.want()
		if err != nil {
			t.Fatal(err)
		}
		res, err := paper.Sample(ctx, c.sample)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(res.Value) != math.Float64bits(want) || res.Samples != 10 {
			t.Errorf("%s: meter = %v over %d samples, want raw mean %v over 10", c.name, res.Value, res.Samples, want)
		}
		a, _ := c.next(ref)
		b, _ := c.next(got)
		if a != b {
			t.Errorf("%s: next observation %v after the meter, %v after the raw mean: noise streams diverged", c.name, b, a)
		}
	}
	if attrs := span.Attrs(); len(attrs) != 0 {
		t.Errorf("paper protocol wrote span attributes %v", attrs)
	}
	if mSamples.Value() != samples || mSimSeconds.Count() != sims {
		t.Error("paper protocol moved the measure_* instruments")
	}

	res, err := mustMeter(t, DefaultConfig()).Sample(ctx, cases[2].sample)
	if err != nil {
		t.Fatal(err)
	}
	if mSamples.Value() != samples+int64(res.Samples) || mSimSeconds.Count() != sims+1 {
		t.Error("resilient protocol did not record its measure_* instruments")
	}
	keys := map[string]bool{}
	for _, a := range span.Attrs() {
		keys[a.Key] = true
	}
	for _, k := range []string{"samples", "retries", "sim_cost_s", "converged"} {
		if !keys[k] {
			t.Errorf("resilient protocol wrote no %q span attribute", k)
		}
	}
}
