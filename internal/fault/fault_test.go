package fault

import (
	"errors"
	"testing"

	"grophecy/internal/cpumodel"
	"grophecy/internal/errdefs"
	"grophecy/internal/gpu"
	"grophecy/internal/gpusim"
	"grophecy/internal/pcie"
	"grophecy/internal/perfmodel"
	"grophecy/internal/units"
)

func testBus() *pcie.Bus { return pcie.NewBus(pcie.DefaultConfig()) }

func testGPU() *gpusim.Sim { return gpusim.New(gpu.QuadroFX5600(), 0x51b) }

// testKernel is a small streaming kernel and its noiseless launch
// time on testGPU.
func testKernel(t *testing.T) (perfmodel.Characteristics, float64) {
	t.Helper()
	ch := perfmodel.Characteristics{
		Name: "streaming", Threads: 1 << 16, BlockSize: 256,
		CompInstsPerThread: 20, GlobalLoadsPerThread: 2, GlobalStoresPerThread: 1,
		TransactionsPerRequest: 2, BytesPerThread: 12, RegsPerThread: 10,
	}
	base, err := testGPU().BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	return ch, base
}

func heavyPlan() Plan {
	return Plan{
		TransientProb: 0.05,
		OutlierProb:   0.05, OutlierScale: 10, OutlierBurst: 3,
		SlowPeriod: 20, SlowLength: 4, SlowFactor: 5,
		DriftRate: 1e-5,
		Seed:      42,
	}
}

func TestEmptyPlanIsBitIdenticalPassthrough(t *testing.T) {
	_, base := testKernel(t)
	rawBus, rawGPU := testBus(), testGPU()
	bus, g := NewBus(testBus(), Plan{}), NewGPU(testGPU(), Plan{})
	surfaces := []struct {
		name         string
		raw, wrapped func() (float64, error)
		in           *injector
	}{
		{"bus",
			func() (float64, error) { return rawBus.Transfer(pcie.HostToDevice, pcie.Pinned, units.KB) },
			func() (float64, error) { return bus.Transfer(pcie.HostToDevice, pcie.Pinned, units.KB) },
			bus.in},
		{"gpu",
			func() (float64, error) { return rawGPU.Launch(base), nil },
			func() (float64, error) { return g.Launch(base) },
			g.in},
	}
	for _, s := range surfaces {
		noise := *s.in.noise
		for i := 0; i < 200; i++ {
			a, errA := s.raw()
			b, errB := s.wrapped()
			if errA != nil || errB != nil {
				t.Fatalf("%s: errors: %v, %v", s.name, errA, errB)
			}
			if a != b {
				t.Fatalf("%s: observation %d: raw %v != wrapped %v", s.name, i, a, b)
			}
		}
		if st := s.in.snapshot(); st != (Stats{}) {
			t.Errorf("%s: empty plan accumulated stats %+v", s.name, st)
		}
		if *s.in.noise != noise {
			t.Errorf("%s: empty plan consumed its fault stream", s.name)
		}
	}
}

// heavyRun takes 500 observations under one wrapper and returns their
// times, which ones failed, and the wrapper's stats.
func heavyRun(observe func() (float64, error), stats func() Stats) ([]float64, []bool, Stats) {
	var times []float64
	var failed []bool
	for i := 0; i < 500; i++ {
		v, err := observe()
		times = append(times, v)
		failed = append(failed, err != nil)
	}
	return times, failed, stats()
}

func TestFaultSequenceDeterministic(t *testing.T) {
	ch, base := testKernel(t)
	busRun := func() ([]float64, []bool, Stats) {
		b := NewBus(testBus(), heavyPlan())
		return heavyRun(func() (float64, error) {
			return b.Transfer(pcie.DeviceToHost, pcie.Pinned, units.MB)
		}, b.Stats)
	}
	// The GPU's reference observes each launch through the whole
	// simulator (pre, Sim.Run, post), as launches were observed before
	// Launch took a precomputed base time; Launch must inject exactly
	// the same faults.
	cases := []struct {
		name string
		a, b func() ([]float64, []bool, Stats)
	}{
		{"bus", busRun, busRun},
		{"gpu", func() ([]float64, []bool, Stats) {
			g := NewGPU(testGPU(), heavyPlan())
			return heavyRun(func() (float64, error) { return g.Launch(base) }, g.Stats)
		}, func() ([]float64, []bool, Stats) {
			g := NewGPU(testGPU(), heavyPlan())
			return heavyRun(func() (float64, error) {
				if err := g.in.pre("kernel launch"); err != nil {
					return 0, err
				}
				t, err := g.inner.Run(ch)
				if err != nil {
					return 0, err
				}
				return g.in.post(t), nil
			}, g.Stats)
		}},
	}
	for _, c := range cases {
		t1, f1, s1 := c.a()
		t2, f2, s2 := c.b()
		if s1 != s2 {
			t.Fatalf("%s: stats diverged: %+v vs %+v", c.name, s1, s2)
		}
		for i := range t1 {
			if t1[i] != t2[i] || f1[i] != f2[i] {
				t.Fatalf("%s: observation %d diverged: (%v,%v) vs (%v,%v)", c.name, i, t1[i], f1[i], t2[i], f2[i])
			}
		}
		if s1.Transients == 0 || s1.Outliers == 0 || s1.Slowed == 0 {
			t.Errorf("%s: heavy plan injected nothing: %+v", c.name, s1)
		}
	}
}

func TestTransientsAreTransientErrors(t *testing.T) {
	b := NewBus(testBus(), Plan{TransientProb: 1, Seed: 1})
	_, err := b.Transfer(pcie.HostToDevice, pcie.Pinned, 1)
	if !errdefs.IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
}

func TestTransientPreservesInnerNoiseStream(t *testing.T) {
	// A transient failure must not consume entropy from the wrapped
	// bus: the next successful observation should match a raw bus that
	// never saw the failure.
	cfg := pcie.DefaultConfig()
	raw := pcie.NewBus(cfg)
	// TransientProb=1 for the first draw is impossible to sequence
	// deterministically here, so force a failure via a plan whose
	// first Bernoulli draw at this seed fires.
	plan := Plan{TransientProb: 0.5, Seed: 0}
	wrapped := NewBus(pcie.NewBus(cfg), plan)
	var rawVals, okVals []float64
	for len(okVals) < 50 {
		v, err := wrapped.Transfer(pcie.HostToDevice, pcie.Pinned, units.KB)
		if err != nil {
			continue // injected before the inner bus was touched
		}
		okVals = append(okVals, v)
	}
	for i := 0; i < 50; i++ {
		v, err := raw.Transfer(pcie.HostToDevice, pcie.Pinned, units.KB)
		if err != nil {
			t.Fatal(err)
		}
		rawVals = append(rawVals, v)
	}
	if wrapped.Stats().Transients == 0 {
		t.Fatal("plan injected no transients; test is vacuous")
	}
	for i := range okVals {
		if okVals[i] != rawVals[i] {
			t.Fatalf("observation %d: wrapped %v != raw %v (transients consumed inner entropy)",
				i, okVals[i], rawVals[i])
		}
	}
}

func TestOutlierBurstScalesRuns(t *testing.T) {
	plan := Plan{OutlierProb: 0.2, OutlierScale: 100, OutlierBurst: 3, Seed: 7}
	b := NewBus(testBus(), plan)
	base, err := b.inner.BaseTime(pcie.HostToDevice, pcie.Pinned, units.MB)
	if err != nil {
		t.Fatal(err)
	}
	outliers := 0
	for i := 0; i < 300; i++ {
		v, err := b.Transfer(pcie.HostToDevice, pcie.Pinned, units.MB)
		if err != nil {
			t.Fatal(err)
		}
		if v > 10*base {
			outliers++
		}
	}
	if got := b.Stats().Outliers; got != outliers {
		t.Errorf("counted %d outliers, stats say %d", outliers, got)
	}
	if outliers == 0 {
		t.Error("no outliers injected")
	}
}

func TestSlowEpisodePhase(t *testing.T) {
	plan := Plan{SlowPeriod: 10, SlowLength: 2, SlowFactor: 50, Seed: 3}
	b := NewBus(testBus(), plan)
	base, err := b.inner.BaseTime(pcie.HostToDevice, pcie.Pinned, units.MB)
	if err != nil {
		t.Fatal(err)
	}
	var slowedAt []int
	for i := 0; i < 36; i++ {
		v, err := b.Transfer(pcie.HostToDevice, pcie.Pinned, units.MB)
		if err != nil {
			t.Fatal(err)
		}
		if v > 10*base {
			slowedAt = append(slowedAt, i)
		}
	}
	want := []int{10, 11, 22, 23, 34, 35} // phase >= period within each period+len cycle
	if len(slowedAt) != len(want) {
		t.Fatalf("slowed at %v, want %v", slowedAt, want)
	}
	for i := range want {
		if slowedAt[i] != want[i] {
			t.Fatalf("slowed at %v, want %v", slowedAt, want)
		}
	}
}

func TestDriftGrows(t *testing.T) {
	plan := Plan{DriftRate: 0.01, Seed: 5}
	b := NewBus(testBus(), plan)
	first, err := b.Transfer(pcie.HostToDevice, pcie.Pinned, 64*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 200; i++ {
		last, err = b.Transfer(pcie.HostToDevice, pcie.Pinned, 64*units.MB)
		if err != nil {
			t.Fatal(err)
		}
	}
	// exp(0.01*200) ~ 7.4x; noise is well under that.
	if last < 3*first {
		t.Errorf("drift did not accumulate: first %v, last %v", first, last)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{TransientProb: 0.02, Seed: 0},
		{OutlierProb: 0.05, OutlierScale: 8, OutlierBurst: 3},
		{SlowPeriod: 400, SlowLength: 40, SlowFactor: 2.5},
		heavyPlan(),
	}
	for _, p := range plans {
		got, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("round trip %q: got %+v, want %+v", p.String(), got, p)
		}
	}
}

func TestParsePlanSpecials(t *testing.T) {
	for _, spec := range []string{"", "none", "  none  "} {
		p, err := ParsePlan(spec)
		if err != nil || !p.Empty() {
			t.Errorf("ParsePlan(%q) = %+v, %v, want empty", spec, p, err)
		}
	}
}

func TestParsePlanRejectsMalformed(t *testing.T) {
	bad := []string{
		"transient", "transient=x", "transient=2",
		"outlier=0.1", "outlier=0.1:0.5", "outlier=0.1:2:3:4",
		"slow=1:2", "slow=0.5:2:3", "slow=10:0:3", "slow=10:2:0.5",
		"wibble=1", "seed=-1",
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); !errors.Is(err, errdefs.ErrInvalidInput) {
			t.Errorf("ParsePlan(%q) err = %v, want ErrInvalidInput", spec, err)
		}
	}
}

func TestSetAggregatesStats(t *testing.T) {
	sim := testGPU()
	cpuSim := cpumodel.New(cpumodel.XeonE5405(), 0xcb0)
	set := NewSet(Plan{DriftRate: 1e-9, Seed: 1}, testBus(), sim, cpuSim)
	if _, err := set.Bus.Transfer(pcie.HostToDevice, pcie.Pinned, units.KB); err != nil {
		t.Fatal(err)
	}
	w := cpumodel.Workload{
		Name: "w", Elements: 1 << 16, FlopsPerElem: 8, BytesPerElem: 16, Regions: 1,
	}
	if _, err := set.CPU.Run(w); err != nil {
		t.Fatal(err)
	}
	if got := set.Stats().Observations; got != 2 {
		t.Errorf("aggregate observations = %d, want 2", got)
	}
}
