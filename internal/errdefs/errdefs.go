// Package errdefs defines the typed error taxonomy shared by the
// measurement, calibration, and orchestration layers.
//
// Every sentinel here is meant to be tested with errors.Is after any
// amount of wrapping with fmt.Errorf("...: %w", err). The taxonomy
// gives the pipeline a stable vocabulary for failure semantics:
//
//   - ErrInvalidInput: a caller passed data that fails validation on a
//     public API path (bad transfer size, unknown direction, malformed
//     plan). These used to be panics; they are ordinary errors because
//     the offending values routinely come from user input (skeleton
//     files, CLI flags, workload tables), not from programmer mistakes.
//   - ErrTransient: a measurement failed for a reason that is expected
//     to clear on retry (a dropped transfer, a busy link). The
//     resilient measurement layer retries these with capped
//     exponential backoff; anything else is permanent.
//   - ErrMeasureTimeout: a measurement exceeded its deadline — either
//     the simulated time budget of internal/measure or a cancelled
//     context.Context.
//   - ErrCalibrationFailed: calibration could not produce a usable
//     model even after the degradation ladder (fallback sizes,
//     conservative defaults) was exhausted.
//   - ErrPanic: a sweep worker panicked; the error carries the
//     recovered value and the goroutine stack.
//   - ErrCorruptSnapshot: a persisted calibration snapshot failed its
//     integrity checks (bad magic, checksum mismatch, malformed
//     payload). The store quarantines the file and the daemon
//     cold-starts that key instead of serving garbage.
//   - ErrCircuitOpen: the per-key calibration circuit breaker is open
//     after repeated failures; callers should back off and retry after
//     the breaker's half-open window instead of queueing.
//   - ErrSkipped: a batch job never ran because a job it depends on
//     failed (or was itself skipped). The batch layer surfaces it
//     per-row as 424 Failed Dependency; it is not retryable — the
//     dependency must be fixed first.
//
// Panic policy: panics remain reserved for true programmer errors —
// invalid hard-coded configurations (pcie.NewBus, gpusim.New), broken
// internal invariants — where the right fix is a code change, not
// error handling.
package errdefs

import (
	"errors"
	"fmt"
)

// Sentinel errors of the taxonomy. Match with errors.Is.
var (
	// ErrInvalidInput marks input-validation failures on public API
	// paths (caller-supplied sizes, directions, kinds, specs).
	ErrInvalidInput = errors.New("invalid input")

	// ErrTransient marks failures expected to clear on retry.
	ErrTransient = errors.New("transient failure")

	// ErrMeasureTimeout marks a measurement that exceeded its deadline
	// or was cancelled.
	ErrMeasureTimeout = errors.New("measurement deadline exceeded")

	// ErrCalibrationFailed marks a calibration that could not produce a
	// usable model even after graceful degradation.
	ErrCalibrationFailed = errors.New("calibration failed")

	// ErrPanic marks a recovered worker panic.
	ErrPanic = errors.New("worker panicked")

	// ErrCorruptSnapshot marks a persisted calibration snapshot that
	// failed integrity verification (magic, checksum, payload shape).
	ErrCorruptSnapshot = errors.New("corrupt snapshot")

	// ErrCircuitOpen marks a request rejected because the per-key
	// calibration circuit breaker is open.
	ErrCircuitOpen = errors.New("circuit open")

	// ErrSkipped marks a batch job skipped because a dependency failed.
	ErrSkipped = errors.New("job skipped")
)

// Invalidf returns an input-validation error wrapping ErrInvalidInput.
func Invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidInput, fmt.Sprintf(format, args...))
}

// Transientf returns a retryable error wrapping ErrTransient.
func Transientf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTransient, fmt.Sprintf(format, args...))
}

// IsTransient reports whether err is retryable.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// IsMeasureTimeout reports whether err marks an exhausted measurement
// deadline (simulated budget or cancelled context).
func IsMeasureTimeout(err error) bool { return errors.Is(err, ErrMeasureTimeout) }

// Corruptf returns a snapshot-integrity error wrapping
// ErrCorruptSnapshot.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// Skippedf returns a dependency-skip error wrapping ErrSkipped.
func Skippedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSkipped, fmt.Sprintf(format, args...))
}

// IsSkipped reports whether err marks a job skipped because of a
// failed dependency.
func IsSkipped(err error) bool { return errors.Is(err, ErrSkipped) }

// Retryable classifies an error for retry loops: only transient
// failures are worth retrying immediately. Everything else in the
// taxonomy is permanent from the caller's point of view — invalid
// input never fixes itself, a timeout already consumed the budget, a
// corrupt snapshot stays corrupt, and an open breaker asks the caller
// to back off, not hammer.
func Retryable(err error) bool { return errors.Is(err, ErrTransient) }
