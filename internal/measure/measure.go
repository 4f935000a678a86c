// Package measure is the measurement protocol of the GROPHECY++
// pipeline. Config{Runs: 10} is the paper's protocol, the arithmetic
// mean of ten raw observations (§IV-A), bit for bit; DefaultConfig is
// its resilient form.
//
// The paper's protocol silently assumes every observation succeeds
// and none is an outlier. The resilient configuration drops that
// assumption:
//
//   - Transient failures (errdefs.ErrTransient) are retried with
//     capped exponential backoff plus deterministic jitter. Backoff
//     is charged to the measurement's *simulated* time budget, so
//     resilience has a modeled cost instead of a wall-clock sleep.
//   - Every measurement carries a deadline: a simulated-seconds
//     budget (Config.Deadline) and the caller's context.Context.
//     Exceeding either yields errdefs.ErrMeasureTimeout; a partial
//     Result with the samples gathered so far is still returned so
//     callers can degrade gracefully.
//   - The estimator is outlier-robust: trimmed mean or median instead
//     of the raw mean, with an optional convergence criterion that
//     keeps sampling (up to MaxRuns) until the estimate is stable.
//
// Determinism: backoff jitter is drawn from a seeded rng.Stream, so a
// given seed + fault plan reproduces the same retry schedule, sample
// counts, and estimates on every run.
package measure

import (
	"context"
	"fmt"
	"math"
	"sort"

	"grophecy/internal/errdefs"
	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/pcie"
	"grophecy/internal/rng"
	"grophecy/internal/trace"
)

// Measurement-protocol instruments: how many observations the
// resilient layer took, how many transient retries it absorbed, how
// many measurements ran out of budget, and the simulated cost of each
// measurement (observations plus backoff).
var (
	mSamples = metrics.Default.MustCounter("measure_samples_total",
		"observations taken by the resilient measurement layer")
	mRetries = metrics.Default.MustCounter("measure_retries_total",
		"transient failures retried away")
	mTimeouts = metrics.Default.MustCounter("measure_timeouts_total",
		"measurements that exhausted their simulated budget or context")
	mSimSeconds = metrics.Default.MustHistogram("measure_sim_seconds",
		"simulated seconds consumed per measurement", metrics.TimeBuckets())
)

// Source is a transfer-measurement surface: the raw *pcie.Bus, or a
// fault-injecting wrapper around one (internal/fault.Bus).
type Source interface {
	Transfer(dir pcie.Direction, kind pcie.MemoryKind, size int64) (float64, error)
}

// Estimator selects how samples are reduced to one value.
type Estimator int

const (
	// Mean is the paper's arithmetic mean — exact seed-compatible
	// behavior, no outlier protection.
	Mean Estimator = iota
	// TrimmedMean discards the TrimFrac fraction of samples from each
	// end before averaging.
	TrimmedMean
	// Median is the most outlier-robust choice.
	Median
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case Mean:
		return "mean"
	case TrimmedMean:
		return "trimmed mean"
	case Median:
		return "median"
	default:
		return fmt.Sprintf("Estimator(%d)", int(e))
	}
}

// Config controls the resilient measurement protocol.
type Config struct {
	// Runs is the base sample count per measurement (the paper's 10).
	Runs int
	// MaxRuns caps adaptive sampling; 0 means Runs (no adaptation).
	MaxRuns int
	// Estimator reduces the samples to one value.
	Estimator Estimator
	// TrimFrac is the per-side trim fraction for TrimmedMean.
	TrimFrac float64
	// ConvergeRel, when > 0, keeps sampling past Runs (up to MaxRuns)
	// until the relative standard error of the kept samples drops
	// below it.
	ConvergeRel float64

	// MaxRetries is how many times one sample may be retried on a
	// transient failure before the measurement fails.
	MaxRetries int
	// BaseBackoff is the first retry's backoff in simulated seconds;
	// each further retry doubles it up to MaxBackoff.
	BaseBackoff float64
	// MaxBackoff caps the exponential backoff, simulated seconds.
	MaxBackoff float64
	// JitterFrac scatters each backoff uniformly within ±JitterFrac
	// of itself, de-synchronizing retry storms.
	JitterFrac float64

	// Deadline is the simulated-seconds budget of one measurement
	// (samples plus backoff); 0 disables it.
	Deadline float64

	// Seed seeds the backoff-jitter stream.
	Seed uint64
}

// DefaultConfig returns the hardened protocol defaults: 10 base runs
// (the paper's count), 25% two-sided trimming (the interquartile
// mean, which survives outlier bursts that a lighter trim lets
// through), up to 30 adaptive runs, 4 retries starting at 100
// simulated microseconds of backoff capped at 10 simulated
// milliseconds, 25% jitter, and a 30-second simulated deadline per
// measurement.
func DefaultConfig() Config {
	return Config{
		Runs:        10,
		MaxRuns:     30,
		Estimator:   TrimmedMean,
		TrimFrac:    0.25,
		ConvergeRel: 0.05,
		MaxRetries:  4,
		BaseBackoff: 100e-6,
		MaxBackoff:  10e-3,
		JitterFrac:  0.25,
		Deadline:    30,
		Seed:        0x6ea5,
	}
}

// Validate reports whether the configuration is well-formed.
func (c Config) Validate() error {
	if c.Runs <= 0 {
		return errdefs.Invalidf("measure: needs at least one run, got %d", c.Runs)
	}
	if c.MaxRuns != 0 && c.MaxRuns < c.Runs {
		return errdefs.Invalidf("measure: MaxRuns %d below Runs %d", c.MaxRuns, c.Runs)
	}
	if c.TrimFrac < 0 || c.TrimFrac >= 0.5 {
		return errdefs.Invalidf("measure: trim fraction %v outside [0, 0.5)", c.TrimFrac)
	}
	if c.MaxRetries < 0 {
		return errdefs.Invalidf("measure: negative retry count %d", c.MaxRetries)
	}
	if c.BaseBackoff < 0 || c.MaxBackoff < 0 || c.JitterFrac < 0 {
		return errdefs.Invalidf("measure: negative backoff parameter")
	}
	if c.Deadline < 0 {
		return errdefs.Invalidf("measure: negative deadline %v", c.Deadline)
	}
	switch c.Estimator {
	case Mean, TrimmedMean, Median:
	default:
		return errdefs.Invalidf("measure: unknown estimator %d", c.Estimator)
	}
	return nil
}

// Result is one robust measurement.
type Result struct {
	// Value is the robust estimate in seconds.
	Value float64
	// Samples is how many observations contributed.
	Samples int
	// Retries counts transient failures that were retried away.
	Retries int
	// Trimmed counts samples discarded by the estimator.
	Trimmed int
	// Converged reports whether the convergence criterion was met (or
	// was disabled); false means MaxRuns was exhausted first.
	Converged bool
	// SimTime is the simulated seconds consumed: observations plus
	// backoff.
	SimTime float64
}

// Meter performs robust measurements against arbitrary sample
// functions. It is not safe for concurrent use (it owns one jitter
// stream); give each goroutine its own Meter.
type Meter struct {
	cfg Config
	rng *rng.Stream
}

// New builds a Meter. The configuration is caller data, so an invalid
// one is returned as an error, not a panic.
func New(cfg Config) (*Meter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Meter{cfg: cfg, rng: rng.New(cfg.Seed)}, nil
}

// Sample performs one robust measurement of the quantity produced by
// sample, which is invoked once per observation and may fail
// transiently (errdefs.ErrTransient, retried) or permanently (any
// other error, returned immediately).
//
// On a deadline or cancellation the partial Result gathered so far is
// returned alongside an error wrapping errdefs.ErrMeasureTimeout, so
// callers can degrade gracefully instead of discarding good samples.
//
// When the protocol can retry, extend or time out a measurement,
// every call updates the measure_* instruments and, when the context
// carries a trace span, annotates it with the sample count, retries,
// and simulated cost of this measurement. A fixed-count protocol (the
// paper's) records nothing.
func (m *Meter) Sample(ctx context.Context, sample func() (float64, error)) (Result, error) {
	res, err := m.sampleLoop(ctx, sample)
	if c := &m.cfg; c.MaxRetries == 0 && c.Deadline == 0 && c.MaxRuns <= c.Runs {
		return res, err
	}
	mSamples.Add(int64(res.Samples))
	mRetries.Add(int64(res.Retries))
	if errdefs.IsMeasureTimeout(err) {
		mTimeouts.Inc()
	}
	mSimSeconds.Observe(res.SimTime)
	if span := trace.Current(ctx); span != nil {
		span.SetAttr(trace.Int("samples", int64(res.Samples)))
		span.SetAttr(trace.Int("retries", int64(res.Retries)))
		span.SetAttr(trace.Float("sim_cost_s", res.SimTime))
		span.SetAttr(trace.Bool("converged", res.Converged))
		if err != nil {
			span.SetAttr(trace.String("error", err.Error()))
		}
	}
	return res, err
}

// sampleLoop is the uninstrumented measurement protocol.
func (m *Meter) sampleLoop(ctx context.Context, sample func() (float64, error)) (Result, error) {
	var res Result
	var buf [32]float64 // holds DefaultConfig's MaxRuns without allocating
	samples := buf[:0]

	maxRuns := m.cfg.MaxRuns
	if maxRuns == 0 {
		maxRuns = m.cfg.Runs
	}

	// Poll Done rather than call Err per sample: a cancellable
	// context's Err takes a lock on every call.
	done := ctx.Done()
	for len(samples) < maxRuns {
		select {
		case <-done:
			return m.finish(res, samples), fmt.Errorf("%w: %w", errdefs.ErrMeasureTimeout, ctx.Err())
		default:
		}
		if m.cfg.Deadline > 0 && res.SimTime > m.cfg.Deadline {
			obs.Log(ctx).Warn("measurement exhausted its simulated budget",
				"budget_s", m.cfg.Deadline, "samples", len(samples), "retries", res.Retries)
			return m.finish(res, samples),
				fmt.Errorf("%w: simulated budget %.3gs exhausted after %d samples",
					errdefs.ErrMeasureTimeout, m.cfg.Deadline, len(samples))
		}

		t, err := m.observe(ctx, sample, &res)
		if err != nil {
			return m.finish(res, samples), err
		}
		samples = append(samples, t)
		res.SimTime += t

		if len(samples) >= m.cfg.Runs {
			if m.cfg.ConvergeRel <= 0 || relStdErr(samples) <= m.cfg.ConvergeRel {
				res.Converged = true
				break
			}
		}
	}
	if len(samples) >= maxRuns && !res.Converged {
		// MaxRuns exhausted without meeting the criterion: report the
		// estimate anyway, flagged as unconverged.
		res.Converged = m.cfg.ConvergeRel <= 0
	}
	return m.finish(res, samples), nil
}

// observe takes one sample, retrying transient failures with capped
// exponential backoff + jitter charged to the simulated budget. The
// caller checks ctx before the first attempt; observe before each
// retry.
func (m *Meter) observe(ctx context.Context, sample func() (float64, error), res *Result) (float64, error) {
	for attempt := 0; ; attempt++ {
		t, err := sample()
		if err == nil {
			return t, nil
		}
		if !errdefs.IsTransient(err) {
			return 0, err
		}
		if attempt >= m.cfg.MaxRetries {
			obs.Log(ctx).Warn("transient retries exhausted",
				"attempts", attempt+1, "max_retries", m.cfg.MaxRetries, "err", err.Error())
			return 0, fmt.Errorf("measure: %d retries exhausted: %w", m.cfg.MaxRetries, err)
		}
		backoff := m.cfg.BaseBackoff * math.Pow(2, float64(attempt))
		if m.cfg.MaxBackoff > 0 && backoff > m.cfg.MaxBackoff {
			backoff = m.cfg.MaxBackoff
		}
		if m.cfg.JitterFrac > 0 {
			backoff *= 1 + m.cfg.JitterFrac*(2*m.rng.Float64()-1)
		}
		res.SimTime += backoff
		res.Retries++
		if m.cfg.Deadline > 0 && res.SimTime > m.cfg.Deadline {
			return 0, fmt.Errorf("%w: simulated budget %.3gs exhausted during backoff",
				errdefs.ErrMeasureTimeout, m.cfg.Deadline)
		}
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("%w: %w", errdefs.ErrMeasureTimeout, err)
		}
	}
}

// finish applies the estimator to whatever samples were gathered.
func (m *Meter) finish(res Result, samples []float64) Result {
	res.Samples = len(samples)
	if len(samples) == 0 {
		return res
	}
	switch m.cfg.Estimator {
	case Median:
		s := sorted(samples)
		if n := len(s); n%2 == 1 {
			res.Value = s[n/2]
		} else {
			res.Value = (s[n/2-1] + s[n/2]) / 2
		}
	case TrimmedMean:
		s := sorted(samples)
		k := int(m.cfg.TrimFrac * float64(len(s)))
		if 2*k >= len(s) {
			k = (len(s) - 1) / 2
		}
		kept := s[k : len(s)-k]
		res.Trimmed = len(s) - len(kept)
		res.Value = mean(kept)
	default:
		res.Value = mean(samples)
	}
	return res
}

// MeasureTransfer is Sample specialised to a transfer surface.
func (m *Meter) MeasureTransfer(ctx context.Context, src Source, dir pcie.Direction, kind pcie.MemoryKind, size int64) (Result, error) {
	return m.Sample(ctx, func() (float64, error) {
		return src.Transfer(dir, kind, size)
	})
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relStdErr is stddev/(mean*sqrt(n)), the relative standard error of
// the sample mean — the convergence criterion.
func relStdErr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.Inf(1)
	}
	mu := mean(xs)
	if mu == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n))
	return sd / (math.Abs(mu) * math.Sqrt(float64(n)))
}
