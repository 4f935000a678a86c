// Package rng provides a small deterministic pseudo-random number
// generator used by all GROPHECY++ hardware simulators.
//
// Everything in this repository that injects "measurement noise" — the
// PCIe bus, the GPU timing simulator, the CPU execution model — draws
// from a Stream seeded explicitly by the caller, so every experiment,
// test, and benchmark is bit-for-bit reproducible. The generator is
// splitmix64, which is tiny, fast, has a full 2^64 period per stream,
// and passes the statistical tests that matter for noise injection.
package rng

import "math"

// Stream is a deterministic splitmix64 random stream. The zero value
// is a valid stream seeded with 0; prefer New to make seeding explicit.
type Stream struct {
	state uint64
}

// New returns a Stream seeded with the given value. Distinct seeds
// yield statistically independent streams.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 random bits scaled into [0,1), the standard construction.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Normal returns a normally distributed float64 with the given mean
// and standard deviation, via the Box-Muller transform.
func (s *Stream) Normal(mean, stddev float64) float64 {
	// Reject u1 == 0 so the log is finite.
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormalFactor returns a multiplicative noise factor whose log is
// normally distributed with mean 0 and the given sigma. For small
// sigma the factor is centered near 1, making it a natural model for
// run-to-run timing jitter: time_measured = time_true * factor.
func (s *Stream) LogNormalFactor(sigma float64) float64 {
	return math.Exp(s.Normal(0, sigma))
}

// Exponential returns an exponentially distributed float64 with the
// given mean. Used for occasional long-tail delays (e.g. OS
// scheduling hiccups during a transfer).
func (s *Stream) Exponential(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	return s.Float64() < p
}
