// Package perfmodel implements the analytical GPU kernel execution
// model at the heart of GROPHECY (paper §II-C): given the synthesized
// performance characteristics of one transformed kernel, it projects
// the kernel's execution time on a described GPU architecture.
//
// The model follows the MWP-CWP approach of Hong & Kim (ISCA'09),
// which the GROPHECY paper builds on: an SM hides memory latency by
// overlapping the memory waiting periods of concurrent warps.
//
//   - MWP (memory warp parallelism) is how many warps can overlap
//     their memory requests, limited by latency/departure-delay, by
//     peak DRAM bandwidth, and by the number of resident warps.
//   - CWP (computation warp parallelism) is how many warps' compute
//     periods fit into one compute-plus-memory period.
//
// Comparing MWP and CWP classifies the kernel as memory-bound or
// compute-bound and yields total cycles.
//
// Deliberate omissions (the designed fidelity gap vs internal/gpusim,
// see DESIGN.md §6): kernel launch overhead, DRAM efficiency below
// peak, extra transactions from data-dependent (irregular) access
// patterns, occupancy tail effects (partial waves), and measurement
// noise. These are what make real measured kernels deviate from this
// projection by the ~15% the paper reports.
package perfmodel

import (
	"fmt"
	"math"

	"grophecy/internal/gpu"
	"grophecy/internal/metrics"
)

// mProjections counts analytical kernel projections — the unit of
// work of the transformation exploration.
var mProjections = metrics.Default.MustCounter("perfmodel_projections_total",
	"analytical kernel projections computed")

// Characteristics summarizes one transformed GPU kernel — the
// quantities GROPHECY synthesizes from a code skeleton for a specific
// transformation (thread mapping, tiling, unrolling).
type Characteristics struct {
	// Name identifies the kernel variant (for reports).
	Name string
	// Threads is the total number of GPU threads launched.
	Threads int64
	// BlockSize is threads per block.
	BlockSize int
	// CompInstsPerThread is the dynamic count of warp-issued
	// arithmetic/control instructions per thread.
	CompInstsPerThread float64
	// GlobalLoadsPerThread and GlobalStoresPerThread count global
	// memory request instructions per thread (after any shared-memory
	// staging removed redundant loads).
	GlobalLoadsPerThread  float64
	GlobalStoresPerThread float64
	// TransactionsPerRequest is the average number of memory
	// transactions one warp-wide request generates: 1-2 when fully
	// coalesced, up to WarpSize when fully scattered.
	TransactionsPerRequest float64
	// BytesPerThread is the total global memory traffic per thread in
	// bytes (for the bandwidth bound).
	BytesPerThread float64
	// RegsPerThread and SharedMemPerBlock are the occupancy inputs.
	RegsPerThread     int
	SharedMemPerBlock int64
	// SyncsPerThread counts __syncthreads() executions per thread.
	SyncsPerThread float64
	// IrregularFraction is the fraction of memory requests whose
	// addresses are data-dependent. The analytical model prices them
	// like regular requests (optimistic); the simulator penalizes
	// them. Kept here so both sides read one struct.
	IrregularFraction float64
}

// Validate reports whether the characteristics are self-consistent.
func (c Characteristics) Validate() error {
	switch {
	case c.Threads <= 0:
		return fmt.Errorf("perfmodel: %s: non-positive thread count", c.Name)
	case c.BlockSize <= 0:
		return fmt.Errorf("perfmodel: %s: non-positive block size", c.Name)
	case c.CompInstsPerThread < 0 || c.GlobalLoadsPerThread < 0 || c.GlobalStoresPerThread < 0:
		return fmt.Errorf("perfmodel: %s: negative instruction count", c.Name)
	case c.TransactionsPerRequest < 1:
		return fmt.Errorf("perfmodel: %s: transactions per request %v below 1",
			c.Name, c.TransactionsPerRequest)
	case c.BytesPerThread < 0:
		return fmt.Errorf("perfmodel: %s: negative bytes per thread", c.Name)
	case c.RegsPerThread < 0 || c.SharedMemPerBlock < 0:
		return fmt.Errorf("perfmodel: %s: negative resource use", c.Name)
	case c.SyncsPerThread < 0:
		return fmt.Errorf("perfmodel: %s: negative sync count", c.Name)
	case c.IrregularFraction < 0 || c.IrregularFraction > 1:
		return fmt.Errorf("perfmodel: %s: irregular fraction %v outside [0,1]",
			c.Name, c.IrregularFraction)
	}
	return nil
}

// MemRequestsPerThread is the total global memory requests per thread.
func (c Characteristics) MemRequestsPerThread() float64 {
	return c.GlobalLoadsPerThread + c.GlobalStoresPerThread
}

// Blocks returns the number of thread blocks launched.
func (c Characteristics) Blocks() int64 {
	bs := int64(c.BlockSize)
	return (c.Threads + bs - 1) / bs
}

// WarpsPerBlock returns warps per block (rounded up).
func (c Characteristics) WarpsPerBlock(warpSize int) int64 {
	ws := int64(warpSize)
	return (int64(c.BlockSize) + ws - 1) / ws
}

// TotalBytes returns total global memory traffic.
func (c Characteristics) TotalBytes() float64 {
	return c.BytesPerThread * float64(c.Threads)
}

// BoundKind labels what limits the projected kernel.
type BoundKind string

// The three regimes the MWP-CWP comparison distinguishes.
const (
	// MemoryLatencyBound: too few warps to hide the memory latency.
	MemoryLatencyBound BoundKind = "memory-latency"
	// MemoryBandwidthBound: DRAM throughput is the conveyor.
	MemoryBandwidthBound BoundKind = "memory-bandwidth"
	// ComputeBound: the issue pipeline is saturated.
	ComputeBound BoundKind = "compute"
)

// Projection is the analytical model's output.
type Projection struct {
	// Time is the projected kernel execution time in seconds.
	Time float64
	// Cycles is the projected per-SM cycle count.
	Cycles float64
	// Occ is the occupancy achieved by the launch configuration.
	Occ gpu.Occupancy
	// MWP and CWP are the model's warp-parallelism quantities.
	MWP, CWP float64
	// Bound classifies the limiting resource.
	Bound BoundKind
}

// Project runs the analytical model. It returns an error if the
// characteristics are invalid or the kernel cannot launch on the
// architecture (zero occupancy).
func Project(arch gpu.Arch, ch Characteristics) (Projection, error) {
	if err := arch.Validate(); err != nil {
		return Projection{}, err
	}
	if err := ch.Validate(); err != nil {
		return Projection{}, err
	}
	mProjections.Inc()
	occ := arch.Occupancy(ch.BlockSize, ch.RegsPerThread, ch.SharedMemPerBlock)
	if occ.BlocksPerSM == 0 {
		return Projection{}, fmt.Errorf("perfmodel: %s: zero occupancy (limited by %s)",
			ch.Name, occ.Limiter)
	}

	n := float64(occ.WarpsPerSM) // resident warps per SM

	// Per-warp cycle components. Synchronization serializes warps of
	// a block briefly; price each sync as one extra issue slot per
	// resident warp.
	compCycles := ch.CompInstsPerThread*arch.IssueCyclesPerWarpInst +
		ch.SyncsPerThread*arch.IssueCyclesPerWarpInst*2
	memReqs := ch.MemRequestsPerThread()

	// Departure delay: cycles the memory pipeline is occupied per
	// warp request (one slot per transaction).
	departure := ch.TransactionsPerRequest * arch.TransactionCycles
	// Effective latency of one warp request: base latency plus the
	// serialization of its own transactions.
	memL := arch.MemLatency + (ch.TransactionsPerRequest-1)*arch.TransactionCycles

	totalWarps := float64(ch.Blocks() * ch.WarpsPerBlock(arch.WarpSize))
	// Repetitions: how many rounds of N warps each SM executes.
	repeats := totalWarps / (n * float64(arch.SMs))
	if repeats < 1 {
		repeats = 1
	}

	var cycles float64
	var mwp, cwp float64
	bound := ComputeBound

	if memReqs == 0 {
		// Pure compute kernel: SPs stay busy with N warps round-robin.
		mwp, cwp = n, 1
		cycles = compCycles * n * repeats
	} else {
		memCycles := memL * memReqs

		// MWP: latency-limited, bandwidth-limited, or warp-limited.
		mwpLatency := memL / departure
		bytesPerWarpReq := ch.TransactionsPerRequest * float64(arch.CoalesceSegment)
		bwPerWarp := arch.CoreClock * bytesPerWarpReq / memL
		mwpBandwidth := arch.MemBandwidth / (bwPerWarp * float64(arch.SMs))
		mwp = math.Min(math.Min(mwpLatency, mwpBandwidth), n)
		if mwp < 1 {
			mwp = 1
		}

		cwpFull := (memCycles + compCycles) / math.Max(compCycles, 1)
		cwp = math.Min(cwpFull, n)

		compPerPeriod := compCycles / (memReqs + 1)
		switch {
		case n < mwp || (mwp >= cwp && compCycles == 0):
			// Too few warps to saturate anything: serial latency plus
			// everyone's compute.
			cycles = (memCycles + compCycles*n) * repeats
			bound = MemoryLatencyBound
		case cwp >= mwp:
			// Memory bound: the memory system is the conveyor.
			cycles = (memCycles*n/mwp + compPerPeriod*(mwp-1)) * repeats
			if mwpBandwidth <= mwpLatency && mwpBandwidth <= n {
				bound = MemoryBandwidthBound
			} else {
				bound = MemoryLatencyBound
			}
		default:
			// Compute bound: one memory latency then compute streams.
			cycles = (memL + compCycles*n) * repeats
			bound = ComputeBound
		}
	}

	time := cycles / arch.CoreClock

	// Explicit roofline floor: a kernel can never beat peak DRAM
	// bandwidth on its total traffic.
	if bw := ch.TotalBytes() / arch.MemBandwidth; time < bw {
		time = bw
		bound = MemoryBandwidthBound
	}

	// The driver's nominal launch-plus-sync cost is a known constant
	// of the platform, so the model includes it. (The simulator's
	// driver takes somewhat longer — gpusim.LaunchVariance — which is
	// part of the designed fidelity gap.)
	time += arch.LaunchOverhead

	return Projection{
		Time:   time,
		Cycles: cycles,
		Occ:    occ,
		MWP:    mwp,
		CWP:    cwp,
		Bound:  bound,
	}, nil
}

// ProjectBest runs Project over several candidate characteristics and
// returns the fastest projection and the index of the winning
// candidate. Candidates that cannot launch are skipped; if none can,
// an error is returned.
func ProjectBest(arch gpu.Arch, candidates []Characteristics) (Projection, int, error) {
	bestIdx := -1
	var best Projection
	for i, ch := range candidates {
		p, err := Project(arch, ch)
		if err != nil {
			continue
		}
		if bestIdx < 0 || p.Time < best.Time {
			best, bestIdx = p, i
		}
	}
	if bestIdx < 0 {
		return Projection{}, -1, fmt.Errorf("perfmodel: no candidate can launch on %s", arch.Name)
	}
	return best, bestIdx, nil
}
