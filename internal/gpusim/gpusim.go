// Package gpusim is a warp-level GPU timing simulator. It stands in
// for the physical NVIDIA Quadro FX 5600 of the paper's evaluation
// machine: where the paper measures hand-tuned CUDA kernels on real
// silicon, this repository "measures" them by simulating their
// execution (DESIGN.md §2).
//
// The simulator takes the same kernel characteristics the analytical
// model (internal/perfmodel) consumes, but executes them with higher
// fidelity:
//
//   - an actual warp scheduler is simulated: resident warps on one SM
//     interleave compute segments and memory requests through an issue
//     pipeline and a memory pipeline with finite service rate;
//   - thread blocks are distributed across SMs in waves; the tail wave
//     runs with fewer warps and hides latency worse (occupancy
//     quantization);
//   - the memory pipeline runs at DRAMEfficiency of peak, and
//     data-dependent (irregular) requests generate IrregularPenalty
//     times more transactions;
//   - each kernel launch pays the driver's launch overhead;
//   - results carry seeded measurement noise.
//
// The analytical model ignores all five effects; the gap between the
// two is the designed source of the paper's ~15% average kernel
// prediction error (DESIGN.md §6).
package gpusim

import (
	"fmt"
	"math"

	"grophecy/internal/gpu"
	"grophecy/internal/metrics"
	"grophecy/internal/perfmodel"
	"grophecy/internal/rng"
)

// Simulator instruments.
var (
	mLaunches = metrics.Default.MustCounter("gpusim_launches_total",
		"simulated kernel launches")
	mLaunchSeconds = metrics.Default.MustHistogram("gpusim_launch_seconds",
		"observed simulated kernel times", metrics.TimeBuckets())
)

// LaunchVariance is how much longer the simulated driver's actual
// launch-plus-sync path takes than the nominal arch.LaunchOverhead
// constant the analytical model assumes. Real drivers pay extra for
// host-side queueing and timer synchronization that no model constant
// captures; this is one of the designed model/measurement fidelity
// gaps (DESIGN.md §6) and dominates kernel prediction error for tiny
// grids.
const LaunchVariance = 1.12

// Config controls simulator noise.
type Config struct {
	// Seed seeds the measurement-noise stream.
	Seed uint64
	// NoiseSigma is the lognormal sigma of run-to-run kernel timing
	// jitter. GPU kernels repeat very stably; a fraction of a percent.
	NoiseSigma float64
}

// DefaultConfig returns the noise settings used by the experiments.
func DefaultConfig() Config {
	return Config{Seed: 0x51b, NoiseSigma: 0.006}
}

// Sim simulates kernels on one GPU architecture. Create it with New;
// it is not safe for concurrent use (runs draw from one noise stream,
// and a real GPU serializes kernels too).
type Sim struct {
	arch  gpu.Arch
	cfg   Config
	noise *rng.Stream
}

// New builds a simulator for the architecture. It panics on an
// invalid architecture, which is a programming error.
func New(arch gpu.Arch, cfg Config) *Sim {
	if err := arch.Validate(); err != nil {
		panic(err)
	}
	if cfg.NoiseSigma < 0 {
		panic("gpusim: negative noise sigma")
	}
	return &Sim{arch: arch, cfg: cfg, noise: rng.New(cfg.Seed)}
}

// Arch returns the simulated architecture.
func (s *Sim) Arch() gpu.Arch { return s.arch }

// Run simulates one launch of the kernel and returns the observed
// wall-clock time in seconds, including launch overhead and noise.
func (s *Sim) Run(ch perfmodel.Characteristics) (float64, error) {
	base, err := s.BaseTime(ch)
	if err != nil {
		return 0, err
	}
	return s.Launch(base), nil
}

// Launch observes one launch of a kernel whose noiseless time is
// base (BaseTime): one noise draw, counted in the launch metrics.
func (s *Sim) Launch(base float64) float64 {
	t := base * s.noise.LogNormalFactor(s.cfg.NoiseSigma)
	mLaunches.Inc()
	mLaunchSeconds.Observe(t)
	return t
}

// MeasureMean returns the mean time of runs launches, mirroring the
// paper's measurement protocol (arithmetic mean of ten runs, §IV-A).
// The simulation is deterministic, so the kernel is simulated once
// and each launch draws only its own noise: the result, the noise
// stream and the launch metrics are exactly those of runs calls to
// Run.
func (s *Sim) MeasureMean(ch perfmodel.Characteristics, runs int) (float64, error) {
	if runs <= 0 {
		return 0, fmt.Errorf("gpusim: MeasureMean needs at least one run")
	}
	base, err := s.BaseTime(ch)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i := 0; i < runs; i++ {
		sum += s.Launch(base)
	}
	return sum / float64(runs), nil
}

// Detail reports what the simulator observed while executing one
// kernel — the observability counterpart to perfmodel.Projection.
type Detail struct {
	// Occ is the achieved occupancy.
	Occ gpu.Occupancy
	// FullWaves and TailBlocks describe the launch quantization on
	// the busiest SM.
	FullWaves  int64
	TailBlocks int
	// EffectiveTransactions is the per-request transaction count
	// after the irregularity penalty.
	EffectiveTransactions float64
	// BandwidthLimited reports whether the device-wide DRAM cap, not
	// the per-SM schedule, set the time.
	BandwidthLimited bool
	// Time is the noiseless execution time, including launch
	// overhead.
	Time float64
}

// BaseTime returns the noiseless simulated execution time, the base
// that Launch draws noise around.
func (s *Sim) BaseTime(ch perfmodel.Characteristics) (float64, error) {
	d, err := s.Simulate(ch)
	if err != nil {
		return 0, err
	}
	return d.Time, nil
}

// Simulate runs the warp-level simulation and returns the full
// detail.
func (s *Sim) Simulate(ch perfmodel.Characteristics) (Detail, error) {
	if err := ch.Validate(); err != nil {
		return Detail{}, err
	}
	arch := s.arch
	occ := arch.Occupancy(ch.BlockSize, ch.RegsPerThread, ch.SharedMemPerBlock)
	if occ.BlocksPerSM == 0 {
		return Detail{}, fmt.Errorf("gpusim: %s: kernel cannot launch (limited by %s)",
			ch.Name, occ.Limiter)
	}

	warpsPerBlock := int(ch.WarpsPerBlock(arch.WarpSize))
	blocks := ch.Blocks()

	// Blocks spread round-robin over SMs; the busiest SM bounds the
	// kernel time.
	busiestBlocks := (blocks + int64(arch.SMs) - 1) / int64(arch.SMs)
	fullWaves := busiestBlocks / int64(occ.BlocksPerSM)
	tailBlocks := int(busiestBlocks % int64(occ.BlocksPerSM))

	// Irregular requests fetch scattered addresses: more transactions
	// per request than the coalescing analysis assumed.
	tpr := ch.TransactionsPerRequest *
		(1 + ch.IrregularFraction*(arch.IrregularPenalty-1))

	var cycles float64
	if fullWaves > 0 {
		perWave := s.simulateWave(occ.BlocksPerSM*warpsPerBlock, ch, tpr)
		cycles += float64(fullWaves) * perWave
	}
	if tailBlocks > 0 {
		cycles += s.simulateWave(tailBlocks*warpsPerBlock, ch, tpr)
	}

	time := cycles / arch.CoreClock

	// Global DRAM bandwidth cap across all SMs, at achievable (not
	// peak) efficiency. The per-SM pipeline approximates contention,
	// but a device-wide stream cannot exceed the DRAM itself.
	bwLimited := false
	effBytes := ch.TotalBytes() *
		(1 + ch.IrregularFraction*(arch.IrregularPenalty-1))
	if bw := effBytes / (arch.MemBandwidth * arch.DRAMEfficiency); time < bw {
		time = bw
		bwLimited = true
	}

	return Detail{
		Occ:                   occ,
		FullWaves:             fullWaves,
		TailBlocks:            tailBlocks,
		EffectiveTransactions: tpr,
		BandwidthLimited:      bwLimited,
		Time:                  arch.LaunchOverhead*LaunchVariance + time,
	}, nil
}

// warp tracks one simulated warp's progress through its instruction
// stream.
type warp struct {
	readyAt float64
	seg     int
}

// simulateWave runs the warp scheduler for one wave of nWarps
// resident warps on a single SM and returns the cycle count until the
// last warp retires.
//
// Each warp executes memReqs segments of (compute burst, memory
// request) followed by a trailing compute burst. The SM has one issue
// pipeline (IssueCyclesPerWarpInst per instruction) and one memory
// pipeline (TransactionCycles per transaction, derated by
// DRAMEfficiency); a memory request returns after the pipeline
// serves it plus the architectural latency.
func (s *Sim) simulateWave(nWarps int, ch perfmodel.Characteristics, tpr float64) float64 {
	arch := s.arch
	memReqs := int(math.Round(ch.MemRequestsPerThread()))
	totalComp := ch.CompInstsPerThread + 2*ch.SyncsPerThread
	segments := memReqs + 1
	compPerSeg := totalComp / float64(segments)

	issueBurst := compPerSeg * arch.IssueCyclesPerWarpInst
	memService := tpr * arch.TransactionCycles / arch.DRAMEfficiency
	memLatency := arch.MemLatency + (tpr-1)*arch.TransactionCycles

	warps := make([]warp, nWarps)
	var issueFree, memFree, finish float64

	// Round-robin over warps, one segment at a time, mirroring a
	// greedy-then-oldest scheduler. Iterate until all warps complete
	// all segments.
	remaining := nWarps
	for remaining > 0 {
		progressed := false
		for i := range warps {
			w := &warps[i]
			if w.seg > memReqs {
				continue
			}
			start := max(w.readyAt, issueFree)
			issueFree = start + issueBurst
			if w.seg < memReqs {
				// Compute burst then a memory request.
				reqAt := max(issueFree, memFree)
				memFree = reqAt + memService
				w.readyAt = reqAt + memLatency
			} else {
				// Trailing compute burst: warp retires.
				w.readyAt = issueFree
				if w.readyAt > finish {
					finish = w.readyAt
				}
				remaining--
			}
			w.seg++
			progressed = true
		}
		if !progressed {
			// Cannot happen: every pass advances each unfinished
			// warp by one segment. Guard against scheduler bugs.
			panic("gpusim: scheduler made no progress")
		}
	}
	if memFree > finish {
		finish = memFree
	}
	return finish
}
