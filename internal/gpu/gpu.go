// Package gpu describes GPU architectures for the GROPHECY++
// performance models.
//
// An Arch captures the hardware parameters both the analytical kernel
// model (internal/perfmodel) and the timing simulator
// (internal/gpusim) need: SM count and clocks, warp width, occupancy
// limits, and the memory system. Presets are provided for the NVIDIA
// Quadro FX 5600 (the G80-class device in the paper's evaluation
// machine) and two contemporaries for cross-architecture experiments —
// the paper notes the GPU performance model "can be configured to
// reflect different GPU architectures" (§II-C).
package gpu

import "fmt"

// Arch describes one GPU architecture.
type Arch struct {
	Name string

	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoreClock is the shader (SP) clock in Hz; instruction issue and
	// memory latency are counted in these cycles.
	CoreClock float64
	// WarpSize is the SIMT width.
	WarpSize int
	// IssueCyclesPerWarpInst is how many shader cycles one warp
	// instruction occupies an SM's issue pipeline (4 on G80: 32-wide
	// warp over 8 SPs).
	IssueCyclesPerWarpInst float64

	// Occupancy limits per SM.
	MaxThreadsPerSM    int
	MaxBlocksPerSM     int
	MaxThreadsPerBlock int
	RegistersPerSM     int
	SharedMemPerSM     int64

	// Memory system.
	//
	// MemLatency is the round-trip global memory latency in shader
	// cycles. MemBandwidth is the theoretical peak DRAM bandwidth in
	// bytes/second. CoalesceSegment is the memory transaction size in
	// bytes: a fully coalesced warp (half-warp on G80) request is
	// served in WarpSize*4/CoalesceSegment transactions, a fully
	// scattered one in WarpSize transactions.
	MemLatency      float64
	MemBandwidth    float64
	CoalesceSegment int64
	// TransactionCycles is the issue-pipeline cost of one memory
	// transaction (the "departure delay" of Hong & Kim's model).
	TransactionCycles float64

	// LaunchOverhead is the nominal per-kernel-launch driver cost in
	// seconds (launch plus synchronization, large in the CUDA 2.3
	// era). The analytical model adds this known constant; the
	// simulator's actual driver takes somewhat longer (see
	// gpusim.LaunchVariance).
	LaunchOverhead float64

	// Imperfections modeled ONLY by the timing simulator; the
	// analytical model deliberately ignores them. This asymmetry is
	// the designed source of kernel prediction error (DESIGN.md §6).
	//
	// DRAMEfficiency is the achievable fraction of MemBandwidth under
	// real access streams (row-buffer misses, refresh).
	DRAMEfficiency float64
	// IrregularPenalty multiplies the transaction count of
	// data-dependent (irregular) accesses in the simulator; the
	// analytical model prices them optimistically.
	IrregularPenalty float64
}

// Validate reports whether the architecture description is sensible.
func (a Arch) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("gpu: empty architecture name")
	case a.SMs <= 0:
		return fmt.Errorf("gpu: %s: non-positive SM count", a.Name)
	case a.CoreClock <= 0:
		return fmt.Errorf("gpu: %s: non-positive core clock", a.Name)
	case a.WarpSize <= 0:
		return fmt.Errorf("gpu: %s: non-positive warp size", a.Name)
	case a.IssueCyclesPerWarpInst <= 0:
		return fmt.Errorf("gpu: %s: non-positive issue cycles", a.Name)
	case a.MaxThreadsPerSM <= 0 || a.MaxBlocksPerSM <= 0 || a.MaxThreadsPerBlock <= 0:
		return fmt.Errorf("gpu: %s: non-positive occupancy limit", a.Name)
	case a.RegistersPerSM <= 0 || a.SharedMemPerSM <= 0:
		return fmt.Errorf("gpu: %s: non-positive register/shared-memory capacity", a.Name)
	case a.MemLatency <= 0 || a.MemBandwidth <= 0:
		return fmt.Errorf("gpu: %s: non-positive memory parameters", a.Name)
	case a.CoalesceSegment <= 0 || a.TransactionCycles <= 0:
		return fmt.Errorf("gpu: %s: non-positive transaction parameters", a.Name)
	case a.LaunchOverhead < 0:
		return fmt.Errorf("gpu: %s: negative launch overhead", a.Name)
	case a.DRAMEfficiency <= 0 || a.DRAMEfficiency > 1:
		return fmt.Errorf("gpu: %s: DRAM efficiency %v outside (0,1]", a.Name, a.DRAMEfficiency)
	case a.IrregularPenalty < 1:
		return fmt.Errorf("gpu: %s: irregular penalty %v below 1", a.Name, a.IrregularPenalty)
	}
	return nil
}

// Occupancy is the result of the per-SM occupancy calculation.
type Occupancy struct {
	BlocksPerSM int
	WarpsPerSM  int
	// Limiter names the resource that capped the block count:
	// "threads", "blocks", "registers", or "shared memory".
	Limiter string
}

// Occupancy computes how many blocks of the given shape fit on one SM
// simultaneously, following the CUDA occupancy rules. blockSize is
// threads per block; regsPerThread and shmemPerBlock are the kernel's
// resource appetites. It returns zero occupancy if a single block
// exceeds a hard limit.
func (a Arch) Occupancy(blockSize, regsPerThread int, shmemPerBlock int64) Occupancy {
	if blockSize <= 0 || blockSize > a.MaxThreadsPerBlock {
		return Occupancy{Limiter: "block size"}
	}
	if regsPerThread < 0 || shmemPerBlock < 0 {
		return Occupancy{Limiter: "invalid"}
	}
	best := a.MaxBlocksPerSM
	limiter := "blocks"
	if byThreads := a.MaxThreadsPerSM / blockSize; byThreads < best {
		best, limiter = byThreads, "threads"
	}
	if regsPerThread > 0 {
		if byRegs := a.RegistersPerSM / (regsPerThread * blockSize); byRegs < best {
			best, limiter = byRegs, "registers"
		}
	}
	if shmemPerBlock > 0 {
		if byShmem := int(a.SharedMemPerSM / shmemPerBlock); byShmem < best {
			best, limiter = byShmem, "shared memory"
		}
	}
	if best <= 0 {
		return Occupancy{Limiter: limiter}
	}
	warps := best * ((blockSize + a.WarpSize - 1) / a.WarpSize)
	return Occupancy{BlocksPerSM: best, WarpsPerSM: warps, Limiter: limiter}
}

// QuadroFX5600 returns the paper's evaluation GPU: an NVIDIA Quadro
// FX 5600 (G80 architecture, CUDA compute capability 1.0): 16 SMs of
// 8 SPs at 1.35 GHz, 76.8 GB/s of GDDR3 bandwidth, 16 KB shared
// memory and 8192 registers per SM, and G80's strict half-warp
// coalescing rules.
func QuadroFX5600() Arch {
	return Arch{
		Name:                   "NVIDIA Quadro FX 5600",
		SMs:                    16,
		CoreClock:              1.35e9,
		WarpSize:               32,
		IssueCyclesPerWarpInst: 4,
		MaxThreadsPerSM:        768,
		MaxBlocksPerSM:         8,
		MaxThreadsPerBlock:     512,
		RegistersPerSM:         8192,
		SharedMemPerSM:         16 << 10,
		MemLatency:             520,
		MemBandwidth:           76.8e9,
		CoalesceSegment:        64,
		TransactionCycles:      4,
		LaunchOverhead:         45e-6,
		DRAMEfficiency:         0.80,
		IrregularPenalty:       3.2,
	}
}

// TeslaC1060 returns a GT200-class datacenter card (compute 1.3):
// relaxed coalescing, more SMs, more registers.
func TeslaC1060() Arch {
	return Arch{
		Name:                   "NVIDIA Tesla C1060",
		SMs:                    30,
		CoreClock:              1.296e9,
		WarpSize:               32,
		IssueCyclesPerWarpInst: 4,
		MaxThreadsPerSM:        1024,
		MaxBlocksPerSM:         8,
		MaxThreadsPerBlock:     512,
		RegistersPerSM:         16384,
		SharedMemPerSM:         16 << 10,
		MemLatency:             500,
		MemBandwidth:           102e9,
		CoalesceSegment:        128,
		TransactionCycles:      4,
		LaunchOverhead:         30e-6,
		DRAMEfficiency:         0.82,
		IrregularPenalty:       2.4,
	}
}

// TeslaC2050 returns a Fermi-class card (compute 2.0) with an L1
// cache, modeled here as a lower irregular penalty and latency.
func TeslaC2050() Arch {
	return Arch{
		Name:                   "NVIDIA Tesla C2050",
		SMs:                    14,
		CoreClock:              1.15e9,
		WarpSize:               32,
		IssueCyclesPerWarpInst: 2,
		MaxThreadsPerSM:        1536,
		MaxBlocksPerSM:         8,
		MaxThreadsPerBlock:     1024,
		RegistersPerSM:         32768,
		SharedMemPerSM:         48 << 10,
		MemLatency:             400,
		MemBandwidth:           144e9,
		CoalesceSegment:        128,
		TransactionCycles:      2,
		LaunchOverhead:         18e-6,
		DRAMEfficiency:         0.85,
		IrregularPenalty:       1.8,
	}
}

// Presets returns all built-in architectures.
func Presets() []Arch {
	return []Arch{QuadroFX5600(), TeslaC1060(), TeslaC2050()}
}

// PresetByName returns the preset with the given name, or false.
func PresetByName(name string) (Arch, bool) {
	for _, a := range Presets() {
		if a.Name == name {
			return a, true
		}
	}
	return Arch{}, false
}
