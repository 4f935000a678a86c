// Package fault is a deterministic fault-injection layer for the
// simulated measurement surfaces (the PCIe bus, the GPU timing
// simulator, the CPU execution model).
//
// The paper calibrates its transfer model from just two timed
// transfers averaged over ten runs (§III-C), which makes the whole
// projection pipeline only as trustworthy as its weakest measurement.
// On real hardware those measurements face transient failures,
// long-tail OS interference, and link-state drift. This package makes
// exactly those conditions injectable — and, because every fault is
// drawn from a seeded stream keyed by a composable Plan, perfectly
// reproducible: the same seed and plan produce the same fault
// sequence on every run, under any GOMAXPROCS, and under -race.
//
// Fault classes (all optional, all composable):
//
//   - Transient errors: with probability TransientProb a measurement
//     fails before it starts, returning an error wrapping
//     errdefs.ErrTransient. The resilient measurement layer
//     (internal/measure) retries these with capped backoff.
//   - Long-tail outlier bursts: with probability OutlierProb an
//     observation is multiplied by OutlierScale, and the following
//     OutlierBurst-1 observations on the same surface are too —
//     modeling sustained OS interference rather than isolated spikes.
//   - Degraded-link (stuck-slow) episodes: every SlowPeriod
//     observations, the next SlowLength observations run SlowFactor
//     times slower — a link renegotiating to fewer lanes, a thermal
//     throttle, a misbehaving driver.
//   - Calibration drift: every observation is additionally scaled by
//     exp(DriftRate * n) where n counts observations on that surface,
//     modeling slow environmental drift between calibration and use.
//
// An empty (zero) Plan is a guaranteed pass-through: no fault stream
// is consulted, no arithmetic is applied, and wrapped surfaces return
// bit-identical observations to the unwrapped ones.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"grophecy/internal/cpumodel"
	"grophecy/internal/errdefs"
	"grophecy/internal/gpusim"
	"grophecy/internal/pcie"
	"grophecy/internal/rng"
)

// Plan describes a composable, seeded fault workload. The zero value
// injects nothing.
type Plan struct {
	// TransientProb is the probability that an observation fails with
	// a transient error before the underlying surface is touched.
	TransientProb float64
	// OutlierProb is the probability that an observation starts a
	// long-tail outlier burst.
	OutlierProb float64
	// OutlierScale multiplies observations inside a burst (> 1).
	OutlierScale float64
	// OutlierBurst is the burst length in observations; 0 or 1 means
	// isolated outliers.
	OutlierBurst int
	// SlowPeriod > 0 enables degraded-link episodes: every SlowPeriod
	// observations, the next SlowLength observations are multiplied by
	// SlowFactor.
	SlowPeriod int
	// SlowLength is the episode length in observations.
	SlowLength int
	// SlowFactor is the stuck-slow multiplier (> 1).
	SlowFactor float64
	// DriftRate scales observations by exp(DriftRate*n); n counts
	// observations per surface. Positive rates model a slowly
	// worsening environment.
	DriftRate float64
	// Seed seeds the fault streams. Each wrapped surface forks its own
	// stream from Seed, so surfaces fault independently but
	// reproducibly.
	Seed uint64
}

// Empty reports whether the plan injects nothing. Wrapping with an
// empty plan is a strict pass-through.
func (p Plan) Empty() bool {
	return p.TransientProb == 0 && p.OutlierProb == 0 &&
		p.SlowPeriod == 0 && p.DriftRate == 0
}

// Validate reports whether the plan is well-formed.
func (p Plan) Validate() error {
	if p.TransientProb < 0 || p.TransientProb > 1 {
		return errdefs.Invalidf("fault: transient probability %v outside [0,1]", p.TransientProb)
	}
	if p.OutlierProb < 0 || p.OutlierProb > 1 {
		return errdefs.Invalidf("fault: outlier probability %v outside [0,1]", p.OutlierProb)
	}
	if p.OutlierProb > 0 && p.OutlierScale <= 1 {
		return errdefs.Invalidf("fault: outlier scale %v must exceed 1", p.OutlierScale)
	}
	if p.OutlierBurst < 0 {
		return errdefs.Invalidf("fault: negative outlier burst %d", p.OutlierBurst)
	}
	if p.SlowPeriod < 0 || p.SlowLength < 0 {
		return errdefs.Invalidf("fault: negative slow episode parameters")
	}
	if p.SlowPeriod > 0 {
		if p.SlowLength == 0 {
			return errdefs.Invalidf("fault: slow episode needs a positive length")
		}
		if p.SlowFactor <= 1 {
			return errdefs.Invalidf("fault: slow factor %v must exceed 1", p.SlowFactor)
		}
	}
	return nil
}

// String renders the plan in the compact spec syntax ParsePlan reads.
func (p Plan) String() string {
	if p.Empty() {
		return "none"
	}
	var parts []string
	if p.TransientProb > 0 {
		parts = append(parts, fmt.Sprintf("transient=%g", p.TransientProb))
	}
	if p.OutlierProb > 0 {
		s := fmt.Sprintf("outlier=%g:%g", p.OutlierProb, p.OutlierScale)
		if p.OutlierBurst > 1 {
			s += fmt.Sprintf(":%d", p.OutlierBurst)
		}
		parts = append(parts, s)
	}
	if p.SlowPeriod > 0 {
		parts = append(parts, fmt.Sprintf("slow=%d:%d:%g", p.SlowPeriod, p.SlowLength, p.SlowFactor))
	}
	if p.DriftRate != 0 {
		parts = append(parts, fmt.Sprintf("drift=%g", p.DriftRate))
	}
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses the compact comma-separated spec used by the CLI
// -faults flag:
//
//	transient=P              transient failure probability
//	outlier=P:SCALE[:BURST]  long-tail outlier bursts
//	slow=PERIOD:LEN:FACTOR   recurring stuck-slow episodes
//	drift=RATE               per-observation exp(RATE*n) drift
//	seed=N                   fault stream seed
//
// e.g. "transient=0.02,outlier=0.05:8:3,slow=400:40:2.5,drift=1e-6".
// The spec "none" (or "") yields the empty plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Plan{}, errdefs.Invalidf("fault: malformed field %q (want key=value)", field)
		}
		var err error
		switch key {
		case "transient":
			p.TransientProb, err = strconv.ParseFloat(val, 64)
		case "outlier":
			parts := strings.Split(val, ":")
			if len(parts) < 2 || len(parts) > 3 {
				return Plan{}, errdefs.Invalidf("fault: outlier wants P:SCALE[:BURST], got %q", val)
			}
			if p.OutlierProb, err = strconv.ParseFloat(parts[0], 64); err != nil {
				break
			}
			if p.OutlierScale, err = strconv.ParseFloat(parts[1], 64); err != nil {
				break
			}
			if len(parts) == 3 {
				p.OutlierBurst, err = strconv.Atoi(parts[2])
			}
		case "slow":
			parts := strings.Split(val, ":")
			if len(parts) != 3 {
				return Plan{}, errdefs.Invalidf("fault: slow wants PERIOD:LEN:FACTOR, got %q", val)
			}
			if p.SlowPeriod, err = strconv.Atoi(parts[0]); err != nil {
				break
			}
			if p.SlowLength, err = strconv.Atoi(parts[1]); err != nil {
				break
			}
			p.SlowFactor, err = strconv.ParseFloat(parts[2], 64)
		case "drift":
			p.DriftRate, err = strconv.ParseFloat(val, 64)
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		default:
			return Plan{}, errdefs.Invalidf("fault: unknown field %q", key)
		}
		if err != nil {
			return Plan{}, errdefs.Invalidf("fault: bad value in %q: %v", field, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Stats counts the faults one injector has delivered.
type Stats struct {
	Observations int // calls that reached the surface
	Transients   int // injected transient failures
	Outliers     int // observations scaled by an outlier burst
	Slowed       int // observations inside a stuck-slow episode
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Observations += other.Observations
	s.Transients += other.Transients
	s.Outliers += other.Outliers
	s.Slowed += other.Slowed
}

// String renders the counters.
func (s Stats) String() string {
	return fmt.Sprintf("%d observations: %d transient failures, %d outliers, %d slowed",
		s.Observations, s.Transients, s.Outliers, s.Slowed)
}

// injector applies one surface's fault stream. It is mutex-guarded so
// wrapped surfaces stay safe for concurrent use (the underlying bus
// serializes anyway).
type injector struct {
	plan Plan

	mu        sync.Mutex
	noise     *rng.Stream
	n         int64 // observations so far (post-transient)
	burstLeft int   // outlier burst remaining
	stats     Stats
}

func newInjector(plan Plan, surface uint64) *injector {
	return &injector{plan: plan, noise: rng.New(plan.Seed ^ surface)}
}

// pre runs the pre-observation faults. A transient failure consumes
// no entropy from the wrapped surface's own noise stream, so the
// surface behaves as if the observation never started.
func (in *injector) pre(what string) error {
	if in.plan.Empty() {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.TransientProb > 0 && in.noise.Bernoulli(in.plan.TransientProb) {
		in.stats.Transients++
		return errdefs.Transientf("fault: injected %s failure", what)
	}
	return nil
}

// post perturbs a completed observation.
func (in *injector) post(t float64) float64 {
	if in.plan.Empty() {
		return t
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.plan
	in.stats.Observations++

	if p.OutlierProb > 0 {
		if in.burstLeft == 0 && in.noise.Bernoulli(p.OutlierProb) {
			in.burstLeft = p.OutlierBurst
			if in.burstLeft < 1 {
				in.burstLeft = 1
			}
		}
		if in.burstLeft > 0 {
			in.burstLeft--
			in.stats.Outliers++
			t *= p.OutlierScale
		}
	}
	if p.SlowPeriod > 0 {
		phase := in.n % int64(p.SlowPeriod+p.SlowLength)
		if phase >= int64(p.SlowPeriod) {
			in.stats.Slowed++
			t *= p.SlowFactor
		}
	}
	if p.DriftRate != 0 {
		t *= math.Exp(p.DriftRate * float64(in.n))
	}
	in.n++
	return t
}

func (in *injector) snapshot() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Surface seeds: each wrapped surface XORs one of these into the plan
// seed so the three fault streams are independent but reproducible.
const (
	busSurface = 0xb05fa017
	gpuSurface = 0x69fa017
	cpuSurface = 0xc6fa017
)

// Bus wraps a pcie.Bus with the plan's fault stream. It satisfies
// measure.Source, like the raw bus.
type Bus struct {
	inner *pcie.Bus
	in    *injector
}

// NewBus wraps bus. It panics on a nil bus (programmer error); an
// invalid plan is reported by Plan.Validate at parse time.
func NewBus(bus *pcie.Bus, plan Plan) *Bus {
	if bus == nil {
		panic("fault: NewBus with nil bus")
	}
	return &Bus{inner: bus, in: newInjector(plan, busSurface)}
}

// Stats returns the faults injected so far.
func (b *Bus) Stats() Stats { return b.in.snapshot() }

// Transfer performs one (possibly faulty) transfer observation.
func (b *Bus) Transfer(dir pcie.Direction, kind pcie.MemoryKind, size int64) (float64, error) {
	if err := b.in.pre("transfer"); err != nil {
		return 0, fmt.Errorf("%w (%v %v %d bytes)", err, dir, kind, size)
	}
	t, err := b.inner.Transfer(dir, kind, size)
	if err != nil {
		return 0, err
	}
	return b.in.post(t), nil
}

// GPU wraps a gpusim.Sim with the plan's fault stream.
type GPU struct {
	inner *gpusim.Sim
	in    *injector
}

// NewGPU wraps sim. It panics on a nil simulator (programmer error).
func NewGPU(sim *gpusim.Sim, plan Plan) *GPU {
	if sim == nil {
		panic("fault: NewGPU with nil sim")
	}
	return &GPU{inner: sim, in: newInjector(plan, gpuSurface)}
}

// Stats returns the faults injected so far.
func (g *GPU) Stats() Stats { return g.in.snapshot() }

// Launch observes one (possibly faulty) launch of a kernel whose
// noiseless time is base (gpusim.Sim.BaseTime), so a measurement
// simulates the kernel once and draws only noise and faults per run.
func (g *GPU) Launch(base float64) (float64, error) {
	if err := g.in.pre("kernel launch"); err != nil {
		return 0, err
	}
	return g.in.post(g.inner.Launch(base)), nil
}

// CPU wraps a cpumodel.Sim with the plan's fault stream.
type CPU struct {
	inner *cpumodel.Sim
	in    *injector
}

// NewCPU wraps sim. It panics on a nil simulator (programmer error).
func NewCPU(sim *cpumodel.Sim, plan Plan) *CPU {
	if sim == nil {
		panic("fault: NewCPU with nil sim")
	}
	return &CPU{inner: sim, in: newInjector(plan, cpuSurface)}
}

// Stats returns the faults injected so far.
func (c *CPU) Stats() Stats { return c.in.snapshot() }

// Run produces one (possibly faulty) CPU baseline observation.
func (c *CPU) Run(w cpumodel.Workload) (float64, error) {
	if err := c.in.pre("CPU run"); err != nil {
		return 0, err
	}
	t, err := c.inner.Run(w)
	if err != nil {
		return 0, err
	}
	return c.in.post(t), nil
}

// Set bundles the three wrapped measurement surfaces of one machine.
type Set struct {
	Plan Plan
	Bus  *Bus
	GPU  *GPU
	CPU  *CPU
}

// NewSet wraps all three surfaces under one plan.
func NewSet(plan Plan, bus *pcie.Bus, gpu *gpusim.Sim, cpu *cpumodel.Sim) *Set {
	return &Set{
		Plan: plan,
		Bus:  NewBus(bus, plan),
		GPU:  NewGPU(gpu, plan),
		CPU:  NewCPU(cpu, plan),
	}
}

// Stats aggregates the counters of all three surfaces.
func (s *Set) Stats() Stats {
	var out Stats
	out.Add(s.Bus.Stats())
	out.Add(s.GPU.Stats())
	out.Add(s.CPU.Stats())
	return out
}
