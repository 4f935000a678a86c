package gpusim

import (
	"math"
	"testing"
	"testing/quick"

	"grophecy/internal/gpu"
	"grophecy/internal/perfmodel"
)

func newSim() *Sim { return New(gpu.QuadroFX5600(), DefaultConfig()) }

func streaming(threads int64) perfmodel.Characteristics {
	return perfmodel.Characteristics{
		Name:                   "streaming",
		Threads:                threads,
		BlockSize:              256,
		CompInstsPerThread:     20,
		GlobalLoadsPerThread:   2,
		GlobalStoresPerThread:  1,
		TransactionsPerRequest: 2,
		BytesPerThread:         12,
		RegsPerThread:          10,
	}
}

func TestNewPanicsOnInvalidArch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid arch accepted")
		}
	}()
	New(gpu.Arch{}, DefaultConfig())
}

func TestNewPanicsOnNegativeNoise(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative noise accepted")
		}
	}()
	New(gpu.QuadroFX5600(), Config{NoiseSigma: -1})
}

func TestBaseTimePositiveAndIncludesLaunchOverhead(t *testing.T) {
	s := newSim()
	tiny := streaming(32)
	bt, err := s.BaseTime(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if bt < s.Arch().LaunchOverhead {
		t.Errorf("BaseTime %v below launch overhead %v", bt, s.Arch().LaunchOverhead)
	}
	if bt > s.Arch().LaunchOverhead+1e-3 {
		t.Errorf("BaseTime %v implausibly large for 32 threads", bt)
	}
}

func TestMoreThreadsMoreTime(t *testing.T) {
	s := newSim()
	small, err := s.BaseTime(streaming(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.BaseTime(streaming(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("64x threads not slower: %v vs %v", large, small)
	}
}

func TestBandwidthFloorRespected(t *testing.T) {
	s := newSim()
	ch := streaming(1 << 23)
	bt, err := s.BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	arch := s.Arch()
	floor := ch.TotalBytes() / arch.MemBandwidth
	if bt < floor {
		t.Errorf("BaseTime %v beats peak DRAM bandwidth floor %v", bt, floor)
	}
}

func TestIrregularKernelSlower(t *testing.T) {
	s := newSim()
	reg := streaming(1 << 20)
	irr := reg
	irr.Name = "irregular"
	irr.IrregularFraction = 0.7
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

func TestSimSlowerThanAnalyticalForIrregular(t *testing.T) {
	// The designed fidelity gap: the analytical model prices
	// irregular accesses optimistically, the simulator penalizes
	// them, so measured > predicted (the paper's CFD kernel is
	// underpredicted by 32%).
	arch := gpu.QuadroFX5600()
	s := newSim()
	ch := streaming(1 << 20)
	ch.IrregularFraction = 0.7
	proj, err := perfmodel.Project(arch, ch)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := s.BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	if sim <= proj.Time {
		t.Errorf("simulated irregular kernel (%v) not slower than analytical projection (%v)",
			sim, proj.Time)
	}
}

func TestSimWithinRangeOfAnalyticalForRegular(t *testing.T) {
	// For large regular kernels the simulator and the analytical
	// model must agree reasonably (the paper's HotSpot/SRAD kernel
	// errors are ~1-10%); allow 30% here.
	arch := gpu.QuadroFX5600()
	s := newSim()
	ch := streaming(1 << 22)
	proj, err := perfmodel.Project(arch, ch)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := s.BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sim / proj.Time
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("sim/model ratio = %v for large regular kernel, want within [0.7,1.3]", ratio)
	}
}

func TestRunNoiseCenteredOnBase(t *testing.T) {
	s := newSim()
	ch := streaming(1 << 18)
	base, err := s.BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		r, err := s.Run(ch)
		if err != nil {
			t.Fatal(err)
		}
		if r <= 0 {
			t.Fatalf("run time %v", r)
		}
		sum += r
	}
	mean := sum / n
	if math.Abs(mean-base)/base > 0.01 {
		t.Errorf("mean run %v deviates from base %v", mean, base)
	}
}

func TestDeterministicAcrossSims(t *testing.T) {
	a, b := newSim(), newSim()
	ch := streaming(1 << 16)
	for i := 0; i < 20; i++ {
		ta, err := a.Run(ch)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.Run(ch)
		if err != nil {
			t.Fatal(err)
		}
		if ta != tb {
			t.Fatalf("same-seed sims diverged at run %d", i)
		}
	}
}

func TestMeasureMean(t *testing.T) {
	s := newSim()
	ch := streaming(1 << 16)
	m, err := s.MeasureMean(ch, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 {
		t.Errorf("mean = %v", m)
	}
	if _, err := s.MeasureMean(ch, 0); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestUnlaunchableKernelErrors(t *testing.T) {
	s := newSim()
	ch := streaming(1 << 16)
	ch.BlockSize = 4096
	if _, err := s.BaseTime(ch); err == nil {
		t.Error("unlaunchable kernel accepted")
	}
	if _, err := s.Run(ch); err == nil {
		t.Error("Run accepted unlaunchable kernel")
	}
	bad := streaming(0)
	if _, err := s.BaseTime(bad); err == nil {
		t.Error("invalid characteristics accepted")
	}
	if _, err := s.MeasureMean(bad, 3); err == nil {
		t.Error("MeasureMean accepted invalid characteristics")
	}
}

func TestTailWaveQuantization(t *testing.T) {
	// A grid that fills every SM's residency exactly vs. one with a
	// single extra block: the extra block forces a whole extra wave.
	s := newSim()
	arch := s.Arch()
	ch := streaming(1)
	occ := arch.Occupancy(ch.BlockSize, ch.RegsPerThread, ch.SharedMemPerBlock)
	fullGrid := int64(arch.SMs*occ.BlocksPerSM) * int64(ch.BlockSize)

	exact := streaming(fullGrid)
	plusOne := streaming(fullGrid + int64(ch.BlockSize))
	te, err := s.BaseTime(exact)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := s.BaseTime(plusOne)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= te {
		t.Errorf("one extra block did not cost a tail wave: %v vs %v", tp, te)
	}
}

func TestPureComputeKernelRuns(t *testing.T) {
	s := newSim()
	ch := perfmodel.Characteristics{
		Name:                   "pure",
		Threads:                1 << 18,
		BlockSize:              128,
		CompInstsPerThread:     200,
		TransactionsPerRequest: 1,
		RegsPerThread:          8,
	}
	bt, err := s.BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	if bt <= s.Arch().LaunchOverhead {
		t.Errorf("pure compute kernel time %v suspiciously small", bt)
	}
}

func TestQuickBaseTimeFiniteAndPositive(t *testing.T) {
	s := newSim()
	prop := func(threadsRaw uint32, comp uint8, loads, trans uint8) bool {
		ch := perfmodel.Characteristics{
			Name:                   "q",
			Threads:                int64(threadsRaw%2_000_000) + 1,
			BlockSize:              128,
			CompInstsPerThread:     float64(comp),
			GlobalLoadsPerThread:   float64(loads % 8),
			TransactionsPerRequest: float64(trans%16) + 1,
			BytesPerThread:         float64(loads%8) * 4,
			RegsPerThread:          10,
		}
		bt, err := s.BaseTime(ch)
		if err != nil {
			return false
		}
		return bt > 0 && !math.IsInf(bt, 0) && !math.IsNaN(bt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateDetail(t *testing.T) {
	s := newSim()
	ch := streaming(1 << 20)
	d, err := s.Simulate(ch)
	if err != nil {
		t.Fatal(err)
	}
	if d.Occ.BlocksPerSM <= 0 {
		t.Errorf("occupancy = %+v", d.Occ)
	}
	if d.FullWaves <= 0 {
		t.Errorf("waves = %d for a 1M-thread grid", d.FullWaves)
	}
	if d.EffectiveTransactions != ch.TransactionsPerRequest {
		t.Errorf("regular kernel: effective txns %v != base %v",
			d.EffectiveTransactions, ch.TransactionsPerRequest)
	}
	bt, err := s.BaseTime(ch)
	if err != nil {
		t.Fatal(err)
	}
	if d.Time != bt {
		t.Errorf("Simulate.Time %v != BaseTime %v", d.Time, bt)
	}

	// Irregularity shows up in the detail.
	irr := ch
	irr.IrregularFraction = 0.5
	di, err := s.Simulate(irr)
	if err != nil {
		t.Fatal(err)
	}
	if di.EffectiveTransactions <= d.EffectiveTransactions {
		t.Error("irregular penalty not reflected in detail")
	}
}

func TestSimulateBandwidthLimitedFlag(t *testing.T) {
	s := newSim()
	// A pure streaming kernel with almost no compute at huge scale is
	// device-bandwidth limited.
	ch := perfmodel.Characteristics{
		Name: "stream", Threads: 1 << 24, BlockSize: 256,
		CompInstsPerThread: 2, GlobalLoadsPerThread: 2, GlobalStoresPerThread: 1,
		TransactionsPerRequest: 2, BytesPerThread: 12, RegsPerThread: 8,
	}
	d, err := s.Simulate(ch)
	if err != nil {
		t.Fatal(err)
	}
	if !d.BandwidthLimited {
		t.Error("16M-thread streaming kernel not flagged bandwidth-limited")
	}
}

// TestMeasureMeanMatchesRuns pins the measurement protocol: the mean
// of runs launches is exactly (Σ Run)/runs on an identically seeded
// simulator, and it leaves the noise stream where those runs would.
// An unlaunchable kernel fails before it draws noise or counts a
// launch.
func TestMeasureMeanMatchesRuns(t *testing.T) {
	const runs = 10
	irregular := streaming(1 << 20)
	irregular.Name = "irregular"
	irregular.IrregularFraction = 0.7
	// One block past a full residency forces a tail wave.
	s := newSim()
	ch := streaming(1)
	occ := s.Arch().Occupancy(ch.BlockSize, ch.RegsPerThread, ch.SharedMemPerBlock)
	tail := streaming(int64(s.Arch().SMs*occ.BlocksPerSM+1) * int64(ch.BlockSize))
	tail.Name = "tail-wave"
	if d, err := s.Simulate(tail); err != nil || d.FullWaves == 0 || d.TailBlocks == 0 {
		t.Fatalf("tail-wave kernel has no full and tail wave: %+v, %v", d, err)
	}

	for _, ch := range []perfmodel.Characteristics{streaming(1 << 20), irregular, tail} {
		t.Run(ch.Name, func(t *testing.T) {
			a, b := newSim(), newSim()
			launches := mLaunches.Value()
			got, err := a.MeasureMean(ch, runs)
			if err != nil {
				t.Fatal(err)
			}
			if n := mLaunches.Value() - launches; n != runs {
				t.Errorf("MeasureMean counted %d launches, want %d", n, runs)
			}
			var sum float64
			for i := 0; i < runs; i++ {
				v, err := b.Run(ch)
				if err != nil {
					t.Fatal(err)
				}
				sum += v
			}
			if want := sum / runs; got != want {
				t.Errorf("MeasureMean = %v, want (Σ Run)/%d = %v", got, runs, want)
			}
			ra, errA := a.Run(ch)
			rb, errB := b.Run(ch)
			if errA != nil || errB != nil || ra != rb {
				t.Errorf("next Run after the measurement: %v (%v) vs %v (%v)", ra, errA, rb, errB)
			}
		})
	}

	t.Run("unlaunchable", func(t *testing.T) {
		a, b := newSim(), newSim()
		bad := streaming(1 << 16)
		bad.BlockSize = 4096
		launches := mLaunches.Value()
		if _, err := a.MeasureMean(bad, runs); err == nil {
			t.Fatal("MeasureMean accepted an unlaunchable kernel")
		}
		if n := mLaunches.Value() - launches; n != 0 {
			t.Errorf("failed measurement counted %d launches", n)
		}
		ch := streaming(1 << 16)
		ra, _ := a.Run(ch)
		rb, _ := b.Run(ch)
		if ra != rb {
			t.Errorf("failed measurement moved the noise stream: %v vs %v", ra, rb)
		}
	})
}
