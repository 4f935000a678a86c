package errdefs

import (
	"errors"
	"fmt"
	"testing"
)

func TestInvalidfWraps(t *testing.T) {
	err := Invalidf("bad size %d", -1)
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("err = %v, not ErrInvalidInput", err)
	}
	if got := err.Error(); got != "invalid input: bad size -1" {
		t.Errorf("message = %q", got)
	}
}

func TestTransientfWraps(t *testing.T) {
	err := Transientf("link hiccup %d", 3)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, not ErrTransient", err)
	}
	if !IsTransient(err) {
		t.Error("IsTransient false for a transient error")
	}
}

func TestIsTransientSeesThroughWrapping(t *testing.T) {
	inner := Transientf("flake")
	wrapped := fmt.Errorf("measuring kernel: %w", inner)
	if !IsTransient(wrapped) {
		t.Error("IsTransient false through fmt.Errorf wrapping")
	}
	if IsTransient(errors.New("permanent")) {
		t.Error("IsTransient true for an unrelated error")
	}
	if IsTransient(nil) {
		t.Error("IsTransient true for nil")
	}
}

func TestCorruptfWraps(t *testing.T) {
	err := Corruptf("checksum mismatch in %s", "abc.snap")
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, not ErrCorruptSnapshot", err)
	}
	if got := err.Error(); got != "corrupt snapshot: checksum mismatch in abc.snap" {
		t.Errorf("message = %q", got)
	}
}

func TestNewSentinelsSeeThroughWrapping(t *testing.T) {
	corrupt := fmt.Errorf("loading snapshot dir: %w",
		fmt.Errorf("entry 3: %w", Corruptf("truncated payload")))
	if !errors.Is(corrupt, ErrCorruptSnapshot) {
		t.Error("ErrCorruptSnapshot not seen through a two-level wrap")
	}
	open := fmt.Errorf("projector for key %s: %w", "c2050-pcie3",
		fmt.Errorf("%w: 3 consecutive failures", ErrCircuitOpen))
	if !errors.Is(open, ErrCircuitOpen) {
		t.Error("ErrCircuitOpen not seen through a two-level wrap")
	}
	if errors.Is(open, ErrCorruptSnapshot) || errors.Is(corrupt, ErrCircuitOpen) {
		t.Error("new sentinels match each other through wrapping")
	}
	if errors.Is(nil, ErrCircuitOpen) || errors.Is(nil, ErrCorruptSnapshot) {
		t.Error("new sentinels match nil")
	}
}

// TestRetryableClassification pins the retryable/permanent split of
// the whole taxonomy: only ErrTransient (however deeply wrapped) is
// retryable; every other sentinel is permanent.
func TestRetryableClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{Transientf("link hiccup"), true},
		{fmt.Errorf("attempt 2: %w", Transientf("dropped transfer")), true},
		{ErrInvalidInput, false},
		{ErrMeasureTimeout, false},
		{ErrCalibrationFailed, false},
		{ErrPanic, false},
		{ErrCorruptSnapshot, false},
		{ErrCircuitOpen, false},
		{fmt.Errorf("wrapped: %w", ErrCircuitOpen), false},
		{ErrSkipped, false},
		{Skippedf("dependency %q did not succeed", "a"), false},
		{errors.New("unclassified"), false},
		{nil, false},
	} {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestSkipped(t *testing.T) {
	err := fmt.Errorf("row 3: %w", Skippedf("dependency %q did not succeed", "a"))
	if !IsSkipped(err) {
		t.Errorf("IsSkipped(%v) = false", err)
	}
	if IsSkipped(ErrInvalidInput) || IsSkipped(nil) {
		t.Error("IsSkipped matched a non-skip error")
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	sentinels := []error{ErrInvalidInput, ErrTransient, ErrMeasureTimeout, ErrCalibrationFailed, ErrPanic,
		ErrCorruptSnapshot, ErrCircuitOpen, ErrSkipped}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Errorf("sentinel %v matches %v", a, b)
			}
		}
	}
}
