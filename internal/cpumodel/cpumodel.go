// Package cpumodel simulates multicore CPU execution of the baseline
// (OpenMP) implementations of the paper's benchmarks.
//
// The paper measures the CPU wall time of "the same portion of the
// application that has been ported to the GPU" (§IV-A) on a
// hyper-threaded quad-core Xeon E5405 node running 8 OpenMP threads.
// Only this measured time enters the evaluation — it is the numerator
// of every GPU speedup — so the substitute is an execution *model*,
// not a prediction target: a roofline with explicit scalar/vector
// issue rates, long-latency transcendental ops, a sustained memory
// bandwidth ceiling, OpenMP fork/join overhead, imperfect parallel
// scaling, and seeded run-to-run noise.
package cpumodel

import (
	"fmt"
	"math"

	"grophecy/internal/rng"
)

// Arch describes one CPU platform.
type Arch struct {
	Name string
	// HardwareThreads is the number of OpenMP threads the measurement
	// uses (the paper runs 8).
	HardwareThreads int
	// Clock is the core clock in Hz.
	Clock float64
	// VectorFlopsPerCycle is per-thread flops/cycle for vectorizable
	// loops (SSE on the E5405: 4 single-precision).
	VectorFlopsPerCycle float64
	// ScalarFlopsPerCycle is per-thread flops/cycle for loops the
	// compiler cannot vectorize.
	ScalarFlopsPerCycle float64
	// TranscendentalCycles is the per-op cost of exp/log/sqrt/div.
	TranscendentalCycles float64
	// MemBandwidth is the sustained node memory bandwidth in
	// bytes/second (FSB-limited on this vintage).
	MemBandwidth float64
	// ParallelEfficiency derates perfect scaling across threads.
	ParallelEfficiency float64
	// ForkJoinOverhead is the cost of one OpenMP parallel region.
	ForkJoinOverhead float64
	// RampElements models the loss of parallel efficiency on small
	// grids (scheduling overhead, cold caches): the roofline time is
	// scaled by (Elements+RampElements)/Elements, which vanishes for
	// large inputs and roughly triples the cost of a grid smaller
	// than the ramp.
	RampElements int64
	// IrregularBWFactor derates MemBandwidth for data-dependent
	// access streams (cache-hostile gathers).
	IrregularBWFactor float64
}

// Validate reports whether the description is sensible.
func (a Arch) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("cpumodel: empty architecture name")
	case a.HardwareThreads <= 0:
		return fmt.Errorf("cpumodel: %s: non-positive thread count", a.Name)
	case a.Clock <= 0:
		return fmt.Errorf("cpumodel: %s: non-positive clock", a.Name)
	case a.VectorFlopsPerCycle <= 0 || a.ScalarFlopsPerCycle <= 0:
		return fmt.Errorf("cpumodel: %s: non-positive issue rate", a.Name)
	case a.TranscendentalCycles <= 0:
		return fmt.Errorf("cpumodel: %s: non-positive transcendental cost", a.Name)
	case a.MemBandwidth <= 0:
		return fmt.Errorf("cpumodel: %s: non-positive memory bandwidth", a.Name)
	case a.ParallelEfficiency <= 0 || a.ParallelEfficiency > 1:
		return fmt.Errorf("cpumodel: %s: parallel efficiency outside (0,1]", a.Name)
	case a.ForkJoinOverhead < 0:
		return fmt.Errorf("cpumodel: %s: negative fork/join overhead", a.Name)
	case a.RampElements < 0:
		return fmt.Errorf("cpumodel: %s: negative ramp", a.Name)
	case a.IrregularBWFactor <= 0 || a.IrregularBWFactor > 1:
		return fmt.Errorf("cpumodel: %s: irregular bandwidth factor outside (0,1]", a.Name)
	}
	return nil
}

// XeonE5405 returns the paper's CPU node: 8 OpenMP threads at
// 2.00 GHz with SSE, FSB-era sustained bandwidth around 6 GB/s.
func XeonE5405() Arch {
	return Arch{
		Name:                 "Intel Xeon E5405 (8 threads)",
		HardwareThreads:      8,
		Clock:                2.0e9,
		VectorFlopsPerCycle:  4,
		ScalarFlopsPerCycle:  1,
		TranscendentalCycles: 30,
		MemBandwidth:         6.0e9,
		ParallelEfficiency:   0.82,
		ForkJoinOverhead:     8e-6,
		RampElements:         8000,
		IrregularBWFactor:    0.45,
	}
}

// XeonX5650 returns a newer-generation CPU node for cross-target
// studies: a hyper-threaded hex-core Westmere-EP running 12 OpenMP
// threads at 2.66 GHz, with triple-channel DDR3 instead of an FSB —
// roughly 4x the sustained bandwidth of the E5405 node and much
// cheaper irregular access. Projections against this node answer the
// §V-C question "would the GPU still win against a better CPU?".
func XeonX5650() Arch {
	return Arch{
		Name:                 "Intel Xeon X5650 (12 threads)",
		HardwareThreads:      12,
		Clock:                2.66e9,
		VectorFlopsPerCycle:  4,
		ScalarFlopsPerCycle:  1,
		TranscendentalCycles: 24,
		MemBandwidth:         21.0e9,
		ParallelEfficiency:   0.78,
		ForkJoinOverhead:     6e-6,
		RampElements:         12000,
		IrregularBWFactor:    0.55,
	}
}

// Presets returns all built-in CPU architectures.
func Presets() []Arch {
	return []Arch{XeonE5405(), XeonX5650()}
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

// Workload describes the CPU-side execution of one offloaded region
// for a single iteration.
type Workload struct {
	Name string
	// Elements is the number of data-parallel iterations.
	Elements int64
	// FlopsPerElem and BytesPerElem describe per-element work and
	// memory traffic (cache-aware: reused neighbors count once).
	FlopsPerElem float64
	BytesPerElem float64
	// TranscendentalsPerElem counts exp/log/sqrt/div per element.
	TranscendentalsPerElem float64
	// IrregularFraction is the fraction of traffic with
	// data-dependent addresses.
	IrregularFraction float64
	// Vectorizable marks loops the compiler can SIMD-vectorize.
	Vectorizable bool
	// Regions is the number of OpenMP parallel regions per iteration
	// (one per kernel in the offloaded sequence).
	Regions int
}

// Validate reports whether the workload is sensible.
func (w Workload) Validate() error {
	switch {
	case w.Name == "":
		return fmt.Errorf("cpumodel: workload with empty name")
	case w.Elements <= 0:
		return fmt.Errorf("cpumodel: %s: non-positive element count", w.Name)
	case w.FlopsPerElem < 0 || w.BytesPerElem < 0 || w.TranscendentalsPerElem < 0:
		return fmt.Errorf("cpumodel: %s: negative per-element work", w.Name)
	case w.IrregularFraction < 0 || w.IrregularFraction > 1:
		return fmt.Errorf("cpumodel: %s: irregular fraction outside [0,1]", w.Name)
	case w.Regions < 0:
		return fmt.Errorf("cpumodel: %s: negative region count", w.Name)
	}
	return nil
}

// NoiseSigma is the lognormal run-to-run jitter; CPU timings on a
// shared node wobble a bit more than GPU kernels.
const NoiseSigma = 0.015

// Sim produces measured CPU times. Not safe for concurrent use.
type Sim struct {
	arch  Arch
	noise *rng.Stream
}

// New builds a simulator whose noise stream is seeded by seed; it
// panics on an invalid architecture.
func New(arch Arch, seed uint64) *Sim {
	if err := arch.Validate(); err != nil {
		panic(err)
	}
	return &Sim{arch: arch, noise: rng.New(seed)}
}

// Arch returns the simulated CPU.
func (s *Sim) Arch() Arch { return s.arch }

// BaseTime returns the noiseless execution time of one iteration of
// the workload: OpenMP fork/join plus the roofline maximum of compute
// and memory time.
func (s *Sim) BaseTime(w Workload) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	a := s.arch

	fpc := a.ScalarFlopsPerCycle
	if w.Vectorizable {
		fpc = a.VectorFlopsPerCycle
	}
	cyclesPerElem := w.FlopsPerElem/fpc + w.TranscendentalsPerElem*a.TranscendentalCycles
	parallelRate := float64(a.HardwareThreads) * a.Clock * a.ParallelEfficiency
	compute := float64(w.Elements) * cyclesPerElem / parallelRate

	bw := a.MemBandwidth * (1 - w.IrregularFraction*(1-a.IrregularBWFactor))
	memory := float64(w.Elements) * w.BytesPerElem / bw

	// Small grids never reach the asymptotic throughput: OpenMP
	// scheduling and cold caches dominate until the per-thread work
	// is substantial.
	ramp := (float64(w.Elements) + float64(a.RampElements)) / float64(w.Elements)

	return float64(w.Regions)*a.ForkJoinOverhead + ramp*math.Max(compute, memory), nil
}

// Run returns one noisy measurement of a single iteration.
func (s *Sim) Run(w Workload) (float64, error) {
	base, err := s.BaseTime(w)
	if err != nil {
		return 0, err
	}
	return base * s.noise.LogNormalFactor(NoiseSigma), nil
}
