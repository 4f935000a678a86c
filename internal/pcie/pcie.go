// Package pcie simulates a PCI Express bus connecting CPU (host) and
// GPU (device) memory.
//
// This package is the hardware substitute for the physical PCIe v1 x16
// link of the paper's evaluation machine (Argonne's data analysis
// cluster: Xeon E5405 + Quadro FX 5600). The empirical transfer model
// of GROPHECY++ (internal/xfermodel) never looks inside this package;
// it calibrates itself from two timed transfers exactly as the paper's
// synthetic benchmark does against real hardware.
//
// The simulation reproduces the structural behaviour the paper
// documents in §III-C and Figures 2-3:
//
//   - Transfers cost a fixed DMA setup latency plus a per-byte cost
//     (the alpha + beta*d structure the model exploits).
//   - Pinned (page-locked) memory transfers DMA directly and achieve
//     the full link bandwidth (~2.5 GB/s effective on PCIe v1 x16).
//   - Pageable memory transfers are staged through a driver bounce
//     buffer in fixed-size chunks, paying an extra host memcpy and a
//     per-chunk overhead, and therefore run slower — except for
//     host-to-device transfers below ~2 KB, which the driver copies
//     directly into the command buffer and which beat pinned DMA setup.
//   - Measurements are noisy: latency jitter dominates the relative
//     error for small transfers, and a small multiplicative jitter
//     remains at all sizes. Occasional long-tail spikes model OS
//     scheduling interference. All noise is drawn from a seeded
//     deterministic stream.
package pcie

import (
	"fmt"
	"math"
	"sync"

	"grophecy/internal/errdefs"
	"grophecy/internal/metrics"
	"grophecy/internal/rng"
	"grophecy/internal/units"
)

// Bus instruments.
var (
	mTransfers = metrics.Default.MustCounter("pcie_transfers_total",
		"simulated PCIe transfers")
	mBytes = metrics.Default.MustCounter("pcie_bytes_total",
		"bytes moved across the simulated bus")
	mTransferSeconds = metrics.Default.MustHistogram("pcie_transfer_seconds",
		"observed simulated transfer times", metrics.TimeBuckets())
)

// Direction identifies which way a transfer moves across the bus.
type Direction int

const (
	// HostToDevice is a CPU-memory to GPU-memory transfer (upload).
	HostToDevice Direction = iota
	// DeviceToHost is a GPU-memory to CPU-memory transfer (download).
	DeviceToHost
)

// NumDirections is the number of transfer directions.
const NumDirections = 2

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case HostToDevice:
		return "CPU-to-GPU"
	case DeviceToHost:
		return "GPU-to-CPU"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Valid reports whether d is a defined direction.
func (d Direction) Valid() bool { return d == HostToDevice || d == DeviceToHost }

// MemoryKind identifies how the host buffer of a transfer was
// allocated, which determines the transfer path through the driver.
type MemoryKind int

const (
	// Pinned is page-locked host memory (cudaHostAlloc): the device
	// DMAs directly from/to it at full link bandwidth.
	Pinned MemoryKind = iota
	// Pageable is ordinary malloc'd host memory: the driver stages
	// the transfer through an internal pinned bounce buffer.
	Pageable
)

// String implements fmt.Stringer.
func (k MemoryKind) String() string {
	switch k {
	case Pinned:
		return "pinned"
	case Pageable:
		return "pageable"
	default:
		return fmt.Sprintf("MemoryKind(%d)", int(k))
	}
}

// Valid reports whether k is a defined memory kind.
func (k MemoryKind) Valid() bool { return k == Pinned || k == Pageable }

// DirParams holds the deterministic timing parameters of one transfer
// direction for pinned (direct DMA) transfers.
type DirParams struct {
	// SetupLatency is the fixed cost of initiating a DMA transfer:
	// driver call, doorbell write, descriptor fetch. Seconds.
	SetupLatency float64
	// Bandwidth is the effective link bandwidth in bytes/second once
	// the DMA engine is streaming.
	Bandwidth float64
}

// Config describes a simulated bus. The zero value is not useful; use
// DefaultConfig (the paper's machine) or a preset and adjust.
type Config struct {
	// Pinned DMA parameters per direction, indexed by Direction.
	Pinned [NumDirections]DirParams

	// PageableSetup is the per-transfer setup latency for staged
	// (pageable) transfers, per direction. Slightly above the pinned
	// setup cost because the driver must also prepare the bounce
	// buffer.
	PageableSetup [NumDirections]float64
	// StagingBandwidth is the host memcpy bandwidth into/out of the
	// driver's bounce buffer, bytes/second. The staged path pays
	// 1/link + 1/staging per byte.
	StagingBandwidth float64
	// StagingChunk is the bounce-buffer chunk size in bytes; each
	// chunk pays ChunkOverhead. This produces the mildly non-linear
	// behaviour of pageable transfers at intermediate sizes that the
	// paper notes in footnote 4.
	StagingChunk int64
	// ChunkOverhead is the per-chunk synchronization cost, seconds.
	ChunkOverhead float64
	// CmdBufThreshold: host-to-device pageable transfers at or below
	// this size are written by the CPU directly into the command
	// buffer, skipping DMA setup entirely. This is why pageable beats
	// pinned for uploads under ~2 KB (paper §III-C).
	CmdBufThreshold int64
	// CmdBufLatency is the fixed cost of the command-buffer path.
	CmdBufLatency float64
	// CmdBufBandwidth is the effective bandwidth of the command-buffer
	// path, bytes/second (CPU store bandwidth to write-combined
	// memory; modest).
	CmdBufBandwidth float64

	// LatencyJitterSigma scales additive noise on the setup latency:
	// each transfer's setup cost is multiplied by a lognormal factor
	// with this sigma. Dominates relative error at small sizes.
	LatencyJitterSigma float64
	// BandwidthJitterSigma scales multiplicative noise on the
	// streaming portion of each transfer.
	BandwidthJitterSigma float64
	// SpikeProbability is the chance that a transfer is hit by an OS
	// scheduling hiccup, adding an Exponential(SpikeMean) delay.
	SpikeProbability float64
	// SpikeMean is the mean extra delay of a spike, seconds.
	SpikeMean float64

	// Anomalous size band: on the paper's machine, a particular
	// mid-size CPU-to-GPU transfer "inexplicably has high
	// variability — in approximately half of the runs the measured
	// time is more than two times slower than the predicted time"
	// (§V-A, the CFD squares of Figure 5). The simulated bus
	// reproduces that pathology: uploads whose size falls inside
	// [AnomalyMinSize, AnomalyMaxSize] AND is not a whole multiple of
	// StagingChunk (a short final DMA scatter-gather segment) are hit
	// with probability AnomalyProbability by a slowdown of
	// AnomalySlowdown. The alignment condition matches the paper's
	// observation: the power-of-two synthetic sweep (Fig 4) never
	// shows the anomaly, while CFD's odd-size application arrays do.
	// Set AnomalyProbability to 0 to disable.
	AnomalyMinSize     int64
	AnomalyMaxSize     int64
	AnomalyProbability float64
	AnomalySlowdown    float64

	// Seed seeds the bus's deterministic noise stream.
	Seed uint64
}

// DefaultConfig returns the simulated counterpart of the paper's
// evaluation system: a PCIe v1 x16 link to a Quadro FX 5600, with a
// pinned setup latency on the order of 10 microseconds and an
// effective pinned bandwidth of roughly 2.5 GB/s in both directions
// (paper §III-C).
func DefaultConfig() Config {
	return Config{
		Pinned: [NumDirections]DirParams{
			HostToDevice: {SetupLatency: 10.0e-6, Bandwidth: units.GBps(2.55)},
			DeviceToHost: {SetupLatency: 11.5e-6, Bandwidth: units.GBps(2.45)},
		},
		PageableSetup: [NumDirections]float64{
			HostToDevice: 14.0e-6,
			DeviceToHost: 16.0e-6,
		},
		StagingBandwidth: units.GBps(4.4),
		StagingChunk:     64 * units.KB,
		ChunkOverhead:    1.1e-6,
		CmdBufThreshold:  2 * units.KB,
		CmdBufLatency:    5.0e-6,
		CmdBufBandwidth:  units.GBps(1.0),
		// ~8% lognormal jitter on each setup latency (so a 10-run
		// mean still varies by a few percent), ~0.7% on streaming:
		// yields Fig-4-shaped error (a few percent at small sizes,
		// near zero above 1MB).
		LatencyJitterSigma:   0.08,
		BandwidthJitterSigma: 0.007,
		SpikeProbability:     0.002,
		SpikeMean:            25e-6,
		AnomalyMinSize:       1400 * units.KB,
		AnomalyMaxSize:       6 * units.MB,
		AnomalyProbability:   0.12,
		AnomalySlowdown:      2.2,
		Seed:                 0x9db3,
	}
}

// Gen2Config returns a PCIe v2 x16 link (~5 GB/s effective, paper
// §II-B quotes ~6 GB/s theoretical): same protocol structure, double
// the lane rate, slightly lower setup latency from a newer driver
// stack.
func Gen2Config() Config {
	c := DefaultConfig()
	c.Pinned[HostToDevice] = DirParams{SetupLatency: 8.0e-6, Bandwidth: units.GBps(5.1)}
	c.Pinned[DeviceToHost] = DirParams{SetupLatency: 9.0e-6, Bandwidth: units.GBps(4.9)}
	c.PageableSetup = [NumDirections]float64{HostToDevice: 11.0e-6, DeviceToHost: 13.0e-6}
	c.StagingBandwidth = units.GBps(6.5)
	c.Seed = 0x9db4
	return c
}

// Gen3Config returns a PCIe v3 x16 link (~11 GB/s effective, paper
// §II-B quotes ~12 GB/s theoretical).
func Gen3Config() Config {
	c := DefaultConfig()
	c.Pinned[HostToDevice] = DirParams{SetupLatency: 6.5e-6, Bandwidth: units.GBps(11.0)}
	c.Pinned[DeviceToHost] = DirParams{SetupLatency: 7.5e-6, Bandwidth: units.GBps(10.5)}
	c.PageableSetup = [NumDirections]float64{HostToDevice: 9.0e-6, DeviceToHost: 11.0e-6}
	c.StagingBandwidth = units.GBps(9.0)
	c.Seed = 0x9db5
	return c
}

// Gen4Config returns a PCIe v4 x16 link (~22 GB/s effective of the
// ~32 GB/s theoretical): the generational doubling continues and the
// setup path keeps shrinking as drivers move work off the critical
// path.
func Gen4Config() Config {
	c := DefaultConfig()
	c.Pinned[HostToDevice] = DirParams{SetupLatency: 5.0e-6, Bandwidth: units.GBps(22.0)}
	c.Pinned[DeviceToHost] = DirParams{SetupLatency: 5.8e-6, Bandwidth: units.GBps(21.0)}
	c.PageableSetup = [NumDirections]float64{HostToDevice: 7.0e-6, DeviceToHost: 8.5e-6}
	c.StagingBandwidth = units.GBps(14.0)
	c.Seed = 0x9db6
	return c
}

// Gen5Config returns a PCIe v5 x16 link (~44 GB/s effective of the
// ~63 GB/s theoretical). At this rate the host-side staging memcpy,
// not the link, dominates pageable transfers.
func Gen5Config() Config {
	c := DefaultConfig()
	c.Pinned[HostToDevice] = DirParams{SetupLatency: 4.0e-6, Bandwidth: units.GBps(44.0)}
	c.Pinned[DeviceToHost] = DirParams{SetupLatency: 4.6e-6, Bandwidth: units.GBps(42.0)}
	c.PageableSetup = [NumDirections]float64{HostToDevice: 6.0e-6, DeviceToHost: 7.0e-6}
	c.StagingBandwidth = units.GBps(20.0)
	c.Seed = 0x9db7
	return c
}

// NVLinkConfig returns an NVLink-like point-to-point link: bandwidth
// comparable to PCIe v5 but with a far lower transfer setup cost
// (the doorbell path skips the PCIe transaction layer), which is
// what moves the α term rather than the β term of the transfer
// model.
func NVLinkConfig() Config {
	c := DefaultConfig()
	c.Pinned[HostToDevice] = DirParams{SetupLatency: 1.6e-6, Bandwidth: units.GBps(46.0)}
	c.Pinned[DeviceToHost] = DirParams{SetupLatency: 1.8e-6, Bandwidth: units.GBps(45.0)}
	c.PageableSetup = [NumDirections]float64{HostToDevice: 3.0e-6, DeviceToHost: 3.5e-6}
	c.StagingBandwidth = units.GBps(24.0)
	c.Seed = 0x9db8
	return c
}

// Profile is one named bus preset with its link metadata: the PCIe
// generation and lane count (both zero for non-PCIe links), which the
// daemon's GET /targets surface reports so clients can pick hardware
// without parsing bus names.
type Profile struct {
	Name  string
	Gen   int // PCIe generation; 0 for non-PCIe links
	Lanes int // lane count; 0 for non-PCIe links
	Cfg   Config
}

// Profiles returns every built-in bus preset, oldest first: the
// paper's three PCIe generations plus the modern v4/v5 links and an
// NVLink-like profile. The first three match the paper's §II-B
// enumeration of PCIe effective bandwidths ("approximately 3, 6, or
// 12 GB/s for PCIe versions 1, 2, and 3").
func Profiles() []Profile {
	return []Profile{
		{Name: "PCIe v1 x16", Gen: 1, Lanes: 16, Cfg: DefaultConfig()},
		{Name: "PCIe v2 x16", Gen: 2, Lanes: 16, Cfg: Gen2Config()},
		{Name: "PCIe v3 x16", Gen: 3, Lanes: 16, Cfg: Gen3Config()},
		{Name: "PCIe v4 x16", Gen: 4, Lanes: 16, Cfg: Gen4Config()},
		{Name: "PCIe v5 x16", Gen: 5, Lanes: 16, Cfg: Gen5Config()},
		{Name: "NVLink", Gen: 0, Lanes: 0, Cfg: NVLinkConfig()},
	}
}

// Validate reports whether the configuration is physically sensible.
func (c Config) Validate() error {
	for d := 0; d < NumDirections; d++ {
		if c.Pinned[d].SetupLatency <= 0 {
			return fmt.Errorf("pcie: non-positive pinned setup latency for %v", Direction(d))
		}
		if c.Pinned[d].Bandwidth <= 0 {
			return fmt.Errorf("pcie: non-positive pinned bandwidth for %v", Direction(d))
		}
		if c.PageableSetup[d] <= 0 {
			return fmt.Errorf("pcie: non-positive pageable setup latency for %v", Direction(d))
		}
	}
	if c.StagingBandwidth <= 0 {
		return fmt.Errorf("pcie: non-positive staging bandwidth")
	}
	if c.StagingChunk <= 0 {
		return fmt.Errorf("pcie: non-positive staging chunk")
	}
	if c.CmdBufThreshold < 0 {
		return fmt.Errorf("pcie: negative command-buffer threshold")
	}
	if c.CmdBufBandwidth <= 0 {
		return fmt.Errorf("pcie: non-positive command-buffer bandwidth")
	}
	if c.LatencyJitterSigma < 0 || c.BandwidthJitterSigma < 0 {
		return fmt.Errorf("pcie: negative jitter sigma")
	}
	if c.SpikeProbability < 0 || c.SpikeProbability > 1 {
		return fmt.Errorf("pcie: spike probability %v outside [0,1]", c.SpikeProbability)
	}
	if c.AnomalyProbability < 0 || c.AnomalyProbability > 1 {
		return fmt.Errorf("pcie: anomaly probability %v outside [0,1]", c.AnomalyProbability)
	}
	if c.AnomalyProbability > 0 {
		if c.AnomalySlowdown < 1 {
			return fmt.Errorf("pcie: anomaly slowdown %v below 1", c.AnomalySlowdown)
		}
		if c.AnomalyMinSize < 0 || c.AnomalyMaxSize < c.AnomalyMinSize {
			return fmt.Errorf("pcie: anomaly size band [%d,%d] invalid",
				c.AnomalyMinSize, c.AnomalyMaxSize)
		}
	}
	return nil
}

// Stats accumulates bus usage counters, useful for asserting that a
// projection performed the transfers its plan promised.
type Stats struct {
	Transfers  int
	BytesMoved int64
	BusySecs   float64
}

// Bus is a simulated PCIe link. It is safe for concurrent use; the
// noise stream and counters are guarded by a mutex (transfers on a
// real bus serialize anyway).
type Bus struct {
	cfg Config

	mu    sync.Mutex
	noise *rng.Stream
	stats Stats
}

// NewBus creates a bus from cfg. It panics if cfg is invalid, since a
// bad bus configuration is a programming error, not a runtime
// condition (error policy: see internal/errdefs — methods taking
// caller-supplied transfer parameters return errdefs.ErrInvalidInput
// instead of panicking).
func NewBus(cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{cfg: cfg, noise: rng.New(cfg.Seed)}
}

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Stats returns a snapshot of the usage counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// BaseTime returns the noiseless transfer time for size bytes: the
// ground truth the simulator perturbs. Exposed for tests and for the
// oracle comparisons in internal/experiments; the GROPHECY++ model
// itself never calls this. Transfer parameters come from workload
// data, so invalid ones are reported as errdefs.ErrInvalidInput
// rather than panics.
func (b *Bus) BaseTime(dir Direction, kind MemoryKind, size int64) (float64, error) {
	if !dir.Valid() {
		return 0, errdefs.Invalidf("pcie: invalid direction %d", dir)
	}
	if !kind.Valid() {
		return 0, errdefs.Invalidf("pcie: invalid memory kind %d", kind)
	}
	if size < 0 {
		return 0, errdefs.Invalidf("pcie: negative transfer size %d", size)
	}
	switch kind {
	case Pinned:
		return b.pinnedTime(dir, size), nil
	default:
		return b.pageableTime(dir, size), nil
	}
}

func (b *Bus) pinnedTime(dir Direction, size int64) float64 {
	p := b.cfg.Pinned[dir]
	return p.SetupLatency + float64(size)/p.Bandwidth
}

func (b *Bus) pageableTime(dir Direction, size int64) float64 {
	c := b.cfg
	if dir == HostToDevice && size <= c.CmdBufThreshold {
		// Small uploads ride the command buffer: no DMA setup.
		return c.CmdBufLatency + float64(size)/c.CmdBufBandwidth
	}
	link := b.cfg.Pinned[dir].Bandwidth
	chunks := (size + c.StagingChunk - 1) / c.StagingChunk
	if chunks == 0 {
		chunks = 1 // zero-byte transfer still syncs once
	}
	perByte := 1/link + 1/c.StagingBandwidth
	return c.PageableSetup[dir] + float64(chunks)*c.ChunkOverhead + float64(size)*perByte
}

// Transfer simulates moving size bytes across the bus and returns the
// observed (noisy) wall-clock time in seconds. Zero-byte transfers
// are legal and cost roughly the setup latency, matching CUDA's
// behaviour for cudaMemcpy with count 0.
func (b *Bus) Transfer(dir Direction, kind MemoryKind, size int64) (float64, error) {
	base, err := b.BaseTime(dir, kind, size) // validates args
	if err != nil {
		return 0, err
	}

	b.mu.Lock()
	defer b.mu.Unlock()

	// Split the base time into its latency-like and streaming-like
	// components so jitter scales the way real buses behave: absolute
	// jitter on setup, relative jitter on streaming.
	setup := b.setupPortion(dir, kind, size)
	stream := base - setup

	t := setup*b.noise.LogNormalFactor(b.cfg.LatencyJitterSigma) +
		stream*b.noise.LogNormalFactor(b.cfg.BandwidthJitterSigma)
	if b.noise.Bernoulli(b.cfg.SpikeProbability) {
		t += b.noise.Exponential(b.cfg.SpikeMean)
	}
	if dir == HostToDevice && b.cfg.AnomalyProbability > 0 &&
		size >= b.cfg.AnomalyMinSize && size <= b.cfg.AnomalyMaxSize &&
		size%b.cfg.StagingChunk != 0 &&
		b.noise.Bernoulli(b.cfg.AnomalyProbability) {
		t *= b.cfg.AnomalySlowdown
	}
	// Timing can never be negative; lognormal factors guarantee that,
	// but keep the invariant explicit.
	t = math.Max(t, 0)

	b.stats.Transfers++
	b.stats.BytesMoved += size
	b.stats.BusySecs += t
	mTransfers.Inc()
	mBytes.Add(size)
	mTransferSeconds.Observe(t)
	return t, nil
}

func (b *Bus) setupPortion(dir Direction, kind MemoryKind, size int64) float64 {
	c := b.cfg
	switch {
	case kind == Pinned:
		return c.Pinned[dir].SetupLatency
	case dir == HostToDevice && size <= c.CmdBufThreshold:
		return c.CmdBufLatency
	default:
		return c.PageableSetup[dir]
	}
}

// MeasureMean performs runs transfers and returns the arithmetic mean
// of the observed times — the measurement primitive used both by the
// model calibration (which averages 10 runs, §III-C) and by the
// validation sweeps.
func (b *Bus) MeasureMean(dir Direction, kind MemoryKind, size int64, runs int) (float64, error) {
	if runs <= 0 {
		return 0, errdefs.Invalidf("pcie: MeasureMean needs at least one run, got %d", runs)
	}
	var sum float64
	for i := 0; i < runs; i++ {
		t, err := b.Transfer(dir, kind, size)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum / float64(runs), nil
}
