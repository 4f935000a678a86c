package perfmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"grophecy/internal/gpu"
)

// streaming returns a fully coalesced bandwidth-streaming kernel:
// each thread loads two floats and stores one.
func streaming(threads int64) Characteristics {
	return Characteristics{
		Name:                   "streaming",
		Threads:                threads,
		BlockSize:              256,
		CompInstsPerThread:     20,
		GlobalLoadsPerThread:   2,
		GlobalStoresPerThread:  1,
		TransactionsPerRequest: 2, // two 64B segments per 32-thread warp of float32
		BytesPerThread:         12,
		RegsPerThread:          10,
	}
}

// computeHeavy returns a compute-dominated kernel.
func computeHeavy(threads int64) Characteristics {
	return Characteristics{
		Name:                   "compute",
		Threads:                threads,
		BlockSize:              256,
		CompInstsPerThread:     1000,
		GlobalLoadsPerThread:   1,
		TransactionsPerRequest: 2,
		BytesPerThread:         4,
		RegsPerThread:          16,
	}
}

func TestValidate(t *testing.T) {
	good := streaming(1 << 20)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Characteristics){
		func(c *Characteristics) { c.Threads = 0 },
		func(c *Characteristics) { c.BlockSize = 0 },
		func(c *Characteristics) { c.CompInstsPerThread = -1 },
		func(c *Characteristics) { c.GlobalLoadsPerThread = -1 },
		func(c *Characteristics) { c.TransactionsPerRequest = 0.5 },
		func(c *Characteristics) { c.BytesPerThread = -1 },
		func(c *Characteristics) { c.RegsPerThread = -1 },
		func(c *Characteristics) { c.SharedMemPerBlock = -1 },
		func(c *Characteristics) { c.SyncsPerThread = -1 },
		func(c *Characteristics) { c.IrregularFraction = 1.5 },
	}
	for i, mutate := range mutations {
		c := streaming(1 << 20)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	c := streaming(1000)
	if c.MemRequestsPerThread() != 3 {
		t.Errorf("MemRequests = %v", c.MemRequestsPerThread())
	}
	if c.Blocks() != 4 { // ceil(1000/256)
		t.Errorf("Blocks = %d", c.Blocks())
	}
	if c.WarpsPerBlock(32) != 8 {
		t.Errorf("WarpsPerBlock = %d", c.WarpsPerBlock(32))
	}
	if c.TotalBytes() != 12000 {
		t.Errorf("TotalBytes = %v", c.TotalBytes())
	}
}

func TestStreamingKernelIsBandwidthBound(t *testing.T) {
	arch := gpu.QuadroFX5600()
	ch := streaming(1 << 22) // 4M threads, 48MB of traffic
	p, err := Project(arch, ch)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bound != MemoryBandwidthBound {
		t.Errorf("bound = %v, want memory-bandwidth", p.Bound)
	}
	// Effective bandwidth should be 50-100% of peak.
	bw := ch.TotalBytes() / p.Time
	if bw > arch.MemBandwidth {
		t.Errorf("effective bandwidth %v exceeds peak %v", bw, arch.MemBandwidth)
	}
	if bw < 0.5*arch.MemBandwidth {
		t.Errorf("effective bandwidth %v below half of peak", bw)
	}
}

func TestComputeKernelApproachesPeakIssueRate(t *testing.T) {
	arch := gpu.QuadroFX5600()
	ch := computeHeavy(1 << 22)
	p, err := Project(arch, ch)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bound != ComputeBound {
		t.Errorf("bound = %v, want compute", p.Bound)
	}
	// Lower bound: total warp instructions at peak issue rate across
	// all SMs.
	totalWarps := float64(ch.Blocks() * ch.WarpsPerBlock(arch.WarpSize))
	ideal := totalWarps * ch.CompInstsPerThread * arch.IssueCyclesPerWarpInst /
		(float64(arch.SMs) * arch.CoreClock)
	if p.Time < ideal*0.99 {
		t.Errorf("time %v beats ideal issue rate %v", p.Time, ideal)
	}
	if p.Time > ideal*1.5 {
		t.Errorf("time %v more than 1.5x ideal %v for compute-bound kernel", p.Time, ideal)
	}
}

func TestPureComputeKernel(t *testing.T) {
	arch := gpu.QuadroFX5600()
	ch := Characteristics{
		Name:                   "pure",
		Threads:                1 << 20,
		BlockSize:              256,
		CompInstsPerThread:     500,
		TransactionsPerRequest: 1,
		RegsPerThread:          8,
	}
	p, err := Project(arch, ch)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bound != ComputeBound {
		t.Errorf("bound = %v", p.Bound)
	}
	if p.Time <= 0 {
		t.Errorf("time = %v", p.Time)
	}
}

func TestUncoalescedSlowerThanCoalesced(t *testing.T) {
	arch := gpu.QuadroFX5600()
	co := streaming(1 << 20)
	un := co
	un.Name = "uncoalesced"
	un.TransactionsPerRequest = 16 // fully scattered half-warps
	pc, err := Project(arch, co)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := Project(arch, un)
	if err != nil {
		t.Fatal(err)
	}
	if pu.Time <= pc.Time {
		t.Errorf("uncoalesced (%v) not slower than coalesced (%v)", pu.Time, pc.Time)
	}
	// G80 scattering costs roughly the transaction ratio; expect at
	// least 2x here.
	if pu.Time < 2*pc.Time {
		t.Errorf("uncoalesced only %vx slower", pu.Time/pc.Time)
	}
}

func TestMoreThreadsMoreTime(t *testing.T) {
	arch := gpu.QuadroFX5600()
	small, err := Project(arch, streaming(1<<18))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Project(arch, streaming(1<<22))
	if err != nil {
		t.Fatal(err)
	}
	if large.Time <= small.Time {
		t.Errorf("16x threads not slower: %v vs %v", large.Time, small.Time)
	}
	ratio := large.Time / small.Time
	if ratio < 8 || ratio > 32 {
		t.Errorf("scaling ratio %v implausible for 16x work", ratio)
	}
}

func TestZeroOccupancyError(t *testing.T) {
	arch := gpu.QuadroFX5600()
	ch := streaming(1 << 20)
	ch.BlockSize = 1024 // exceeds MaxThreadsPerBlock=512
	if _, err := Project(arch, ch); err == nil {
		t.Error("unlaunchable kernel accepted")
	}
	ch = streaming(1 << 20)
	ch.SharedMemPerBlock = 64 << 10 // exceeds 16KB/SM
	if _, err := Project(arch, ch); err == nil {
		t.Error("shared-memory-starved kernel accepted")
	}
}

func TestProjectRejectsInvalidInputs(t *testing.T) {
	arch := gpu.QuadroFX5600()
	bad := streaming(0)
	if _, err := Project(arch, bad); err == nil {
		t.Error("invalid characteristics accepted")
	}
	badArch := arch
	badArch.SMs = 0
	if _, err := Project(badArch, streaming(1024)); err == nil {
		t.Error("invalid arch accepted")
	}
}

func TestSyncsAddTime(t *testing.T) {
	arch := gpu.QuadroFX5600()
	base := streaming(1 << 20)
	base.GlobalLoadsPerThread = 0
	base.GlobalStoresPerThread = 0
	base.BytesPerThread = 0
	synced := base
	synced.SyncsPerThread = 50
	pb, err := Project(arch, base)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Project(arch, synced)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Time <= pb.Time {
		t.Errorf("syncs did not add time: %v vs %v", ps.Time, pb.Time)
	}
}

func TestSmallGridLatencyBound(t *testing.T) {
	// 256 threads total: one block on one SM; nothing to overlap.
	arch := gpu.QuadroFX5600()
	ch := streaming(256)
	p, err := Project(arch, ch)
	if err != nil {
		t.Fatal(err)
	}
	if p.Time <= 0 {
		t.Errorf("time = %v", p.Time)
	}
	// Even a tiny kernel pays at least one memory round trip.
	minTime := arch.MemLatency / arch.CoreClock
	if p.Time < minTime {
		t.Errorf("time %v below one memory latency %v", p.Time, minTime)
	}
}

func TestProjectBestPicksFastest(t *testing.T) {
	arch := gpu.QuadroFX5600()
	good := streaming(1 << 20)
	bad := good
	bad.Name = "bad"
	bad.TransactionsPerRequest = 16
	unlaunchable := good
	unlaunchable.Name = "unlaunchable"
	unlaunchable.BlockSize = 4096

	p, idx, err := ProjectBest(arch, []Characteristics{bad, good, unlaunchable})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("best idx = %d, want 1", idx)
	}
	if p.Time <= 0 {
		t.Errorf("best time = %v", p.Time)
	}

	// Ties go to the earlier index: the fastest characteristics twice.
	twin := good
	twin.Name = "twin"
	tp, idx, err := ProjectBest(arch, []Characteristics{bad, unlaunchable, good, twin})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 || tp.Time != p.Time {
		t.Errorf("tied best idx = %d (time %v), want 2 (time %v)", idx, tp.Time, p.Time)
	}
}

func TestProjectBestAllUnlaunchable(t *testing.T) {
	arch := gpu.QuadroFX5600()
	un := streaming(1 << 20)
	un.BlockSize = 4096
	if _, _, err := ProjectBest(arch, []Characteristics{un}); err == nil {
		t.Error("all-unlaunchable candidate set accepted")
	}
	if _, _, err := ProjectBest(arch, nil); err == nil {
		t.Error("empty candidate set accepted")
	}
}

func TestBoundKindStrings(t *testing.T) {
	for _, b := range []BoundKind{MemoryLatencyBound, MemoryBandwidthBound, ComputeBound} {
		if !strings.Contains(string(b), "-") && b != ComputeBound {
			t.Errorf("bound %q unexpected", b)
		}
	}
}

func TestCrossArchitectureFasterCard(t *testing.T) {
	// The same kernel should be projected faster on a C2050 than on
	// the FX 5600 (more bandwidth, lower latency).
	ch := streaming(1 << 22)
	old, err := Project(gpu.QuadroFX5600(), ch)
	if err != nil {
		t.Fatal(err)
	}
	newer, err := Project(gpu.TeslaC2050(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if newer.Time >= old.Time {
		t.Errorf("C2050 (%v) not faster than FX5600 (%v)", newer.Time, old.Time)
	}
}

func TestQuickProjectionPositiveAndFinite(t *testing.T) {
	arch := gpu.QuadroFX5600()
	prop := func(threadsRaw uint32, comp uint16, loads, trans uint8) bool {
		ch := Characteristics{
			Name:                   "q",
			Threads:                int64(threadsRaw%10_000_000) + 1,
			BlockSize:              256,
			CompInstsPerThread:     float64(comp),
			GlobalLoadsPerThread:   float64(loads % 16),
			TransactionsPerRequest: float64(trans%16) + 1,
			BytesPerThread:         float64(loads%16) * 4,
			RegsPerThread:          10,
		}
		p, err := Project(arch, ch)
		if err != nil {
			return false
		}
		return p.Time > 0 && !math.IsInf(p.Time, 0) && !math.IsNaN(p.Time)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMoreTransactionsNeverFaster(t *testing.T) {
	arch := gpu.QuadroFX5600()
	prop := func(t1, t2 uint8) bool {
		a := float64(t1%16) + 1
		b := float64(t2%16) + 1
		if a > b {
			a, b = b, a
		}
		chA := streaming(1 << 20)
		chA.TransactionsPerRequest = a
		chB := streaming(1 << 20)
		chB.TransactionsPerRequest = b
		pa, err := Project(arch, chA)
		if err != nil {
			return false
		}
		pb, err := Project(arch, chB)
		if err != nil {
			return false
		}
		return pb.Time >= pa.Time-1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundClassificationSweep(t *testing.T) {
	// Sweeping compute intensity on a fixed memory footprint must
	// cross from a memory-bound regime into the compute-bound regime
	// exactly once.
	arch := gpu.QuadroFX5600()
	wasCompute := false
	for _, comp := range []float64{1, 4, 16, 64, 256, 1024, 4096} {
		ch := streaming(1 << 20)
		ch.CompInstsPerThread = comp
		p, err := Project(arch, ch)
		if err != nil {
			t.Fatal(err)
		}
		isCompute := p.Bound == ComputeBound
		if wasCompute && !isCompute {
			t.Errorf("bound regressed to %v at comp=%v", p.Bound, comp)
		}
		wasCompute = wasCompute || isCompute
	}
	if !wasCompute {
		t.Error("never became compute-bound even at 4096 insts/thread")
	}
}

func TestLaunchOverheadIncludedInProjection(t *testing.T) {
	// The model includes the nominal driver constant (see
	// gpusim.LaunchVariance for the measured side).
	arch := gpu.QuadroFX5600()
	tiny := streaming(64)
	p, err := Project(arch, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if p.Time < arch.LaunchOverhead {
		t.Errorf("projection %v below the launch overhead %v", p.Time, arch.LaunchOverhead)
	}
}
