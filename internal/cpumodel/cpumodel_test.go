package cpumodel

import (
	"math"
	"testing"
	"testing/quick"
)

func newSim() *Sim { return New(XeonE5405(), DefaultConfig()) }

func stencil(n int64) Workload {
	return Workload{
		Name:                   "stencil",
		Elements:               n,
		FlopsPerElem:           12,
		BytesPerElem:           24,
		TranscendentalsPerElem: 2,
		Vectorizable:           false,
		Regions:                1,
	}
}

func TestXeonE5405Valid(t *testing.T) {
	if err := XeonE5405().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestXeonX5650Valid(t *testing.T) {
	if err := XeonX5650().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) < 2 {
		t.Fatalf("Presets() returned %d architectures, want >= 2", len(ps))
	}
	seen := make(map[string]bool)
	for _, a := range ps {
		if err := a.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", a.Name, err)
		}
		if seen[a.Name] {
			t.Errorf("duplicate preset name %q", a.Name)
		}
		seen[a.Name] = true
		got, ok := PresetByName(a.Name)
		if !ok || got.Name != a.Name {
			t.Errorf("PresetByName(%q) = %v, %v", a.Name, got.Name, ok)
		}
	}
	if _, ok := PresetByName("no such CPU"); ok {
		t.Error("PresetByName accepted an unknown name")
	}
}

// TestX5650BeatsE5405 pins the reason the second preset exists: the
// newer node is strictly faster on both compute- and memory-bound
// work, so cross-target projections vary on the CPU axis.
func TestX5650BeatsE5405(t *testing.T) {
	old := New(XeonE5405(), Config{})
	newer := New(XeonX5650(), Config{})
	for _, w := range []Workload{
		{Name: "compute", Elements: 1 << 20, FlopsPerElem: 500, Regions: 1},
		{Name: "stream", Elements: 1 << 22, FlopsPerElem: 1, BytesPerElem: 12, Vectorizable: true, Regions: 1},
		stencil(1 << 18),
	} {
		to, err := old.BaseTime(w)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := newer.BaseTime(w)
		if err != nil {
			t.Fatal(err)
		}
		if tn >= to {
			t.Errorf("%s: X5650 (%v) not faster than E5405 (%v)", w.Name, tn, to)
		}
	}
}

func TestValidateRejectsBadArch(t *testing.T) {
	mutations := []func(*Arch){
		func(a *Arch) { a.Name = "" },
		func(a *Arch) { a.HardwareThreads = 0 },
		func(a *Arch) { a.Clock = 0 },
		func(a *Arch) { a.VectorFlopsPerCycle = 0 },
		func(a *Arch) { a.ScalarFlopsPerCycle = 0 },
		func(a *Arch) { a.TranscendentalCycles = 0 },
		func(a *Arch) { a.MemBandwidth = 0 },
		func(a *Arch) { a.ParallelEfficiency = 0 },
		func(a *Arch) { a.ParallelEfficiency = 1.1 },
		func(a *Arch) { a.ForkJoinOverhead = -1 },
		func(a *Arch) { a.IrregularBWFactor = 0 },
	}
	for i, mutate := range mutations {
		a := XeonE5405()
		mutate(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := stencil(1000).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Workload{
		{Name: "", Elements: 10},
		{Name: "w", Elements: 0},
		{Name: "w", Elements: 10, FlopsPerElem: -1},
		{Name: "w", Elements: 10, IrregularFraction: 2},
		{Name: "w", Elements: 10, Regions: -1},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestNewPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("invalid arch", func() { New(Arch{}, DefaultConfig()) })
	assertPanic("negative noise", func() { New(XeonE5405(), Config{NoiseSigma: -1}) })
}

func TestComputeBoundWorkload(t *testing.T) {
	s := newSim()
	w := Workload{
		Name: "compute", Elements: 1 << 20,
		FlopsPerElem: 500, BytesPerElem: 4, Vectorizable: false, Regions: 1,
	}
	bt, err := s.BaseTime(w)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Arch()
	ideal := float64(w.Elements) * w.FlopsPerElem /
		(float64(a.HardwareThreads) * a.Clock * a.ScalarFlopsPerCycle)
	if bt < ideal {
		t.Errorf("BaseTime %v beats ideal compute %v", bt, ideal)
	}
	if bt > ideal/a.ParallelEfficiency*1.05 {
		t.Errorf("BaseTime %v far above derated ideal", bt)
	}
}

func TestMemoryBoundWorkload(t *testing.T) {
	s := newSim()
	w := Workload{
		Name: "stream", Elements: 1 << 22,
		FlopsPerElem: 1, BytesPerElem: 12, Vectorizable: true, Regions: 1,
	}
	bt, err := s.BaseTime(w)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Arch()
	floor := float64(w.Elements) * w.BytesPerElem / a.MemBandwidth
	if bt < floor {
		t.Errorf("BaseTime %v beats bandwidth floor %v", bt, floor)
	}
	if bt > floor*1.2 {
		t.Errorf("streaming workload %v not bandwidth-bound (floor %v)", bt, floor)
	}
}

func TestVectorizationSpeedsUpCompute(t *testing.T) {
	s := newSim()
	scalar := Workload{Name: "s", Elements: 1 << 20, FlopsPerElem: 100, BytesPerElem: 1, Regions: 1}
	vec := scalar
	vec.Vectorizable = true
	ts, err := s.BaseTime(scalar)
	if err != nil {
		t.Fatal(err)
	}
	tv, err := s.BaseTime(vec)
	if err != nil {
		t.Fatal(err)
	}
	if tv >= ts {
		t.Errorf("vectorized (%v) not faster than scalar (%v)", tv, ts)
	}
}

func TestIrregularAccessSlowsMemory(t *testing.T) {
	s := newSim()
	reg := Workload{Name: "r", Elements: 1 << 22, BytesPerElem: 16, Regions: 1}
	irr := reg
	irr.IrregularFraction = 1
	tr, err := s.BaseTime(reg)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := s.BaseTime(irr)
	if err != nil {
		t.Fatal(err)
	}
	if ti <= tr {
		t.Errorf("irregular (%v) not slower than regular (%v)", ti, tr)
	}
}

func TestTranscendentalsCost(t *testing.T) {
	s := newSim()
	plain := Workload{Name: "p", Elements: 1 << 20, FlopsPerElem: 10, Regions: 1}
	heavy := plain
	heavy.TranscendentalsPerElem = 4
	tp, err := s.BaseTime(plain)
	if err != nil {
		t.Fatal(err)
	}
	th, err := s.BaseTime(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if th <= tp {
		t.Errorf("transcendentals free: %v vs %v", th, tp)
	}
}

func TestForkJoinOverheadCharged(t *testing.T) {
	s := newSim()
	w := Workload{Name: "tiny", Elements: 1, FlopsPerElem: 1, Regions: 3}
	bt, err := s.BaseTime(w)
	if err != nil {
		t.Fatal(err)
	}
	if bt < 3*s.Arch().ForkJoinOverhead {
		t.Errorf("BaseTime %v below 3 fork/join overheads", bt)
	}
}

func TestRunNoiseAndDeterminism(t *testing.T) {
	a, b := newSim(), newSim()
	w := stencil(1 << 18)
	base, err := a.BaseTime(w)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 200
	for i := 0; i < n; i++ {
		ta, err := a.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		if ta != tb {
			t.Fatal("same-seed sims diverged")
		}
		sum += ta
	}
	if mean := sum / n; math.Abs(mean-base)/base > 0.02 {
		t.Errorf("mean %v deviates from base %v", mean, base)
	}
}

func TestErrorsOnInvalidWorkload(t *testing.T) {
	s := newSim()
	if _, err := s.BaseTime(Workload{}); err == nil {
		t.Error("invalid workload accepted by BaseTime")
	}
	if _, err := s.Run(Workload{}); err == nil {
		t.Error("invalid workload accepted by Run")
	}
}

func TestQuickBaseTimeMonotonicInElements(t *testing.T) {
	s := newSim()
	prop := func(e1, e2 uint32) bool {
		a, b := int64(e1)+1, int64(e2)+1
		if a > b {
			a, b = b, a
		}
		wa, wb := stencil(a), stencil(b)
		ta, err := s.BaseTime(wa)
		if err != nil {
			return false
		}
		tb, err := s.BaseTime(wb)
		if err != nil {
			return false
		}
		return tb >= ta-1e-15
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
