package core

import (
	"context"
	"errors"
	"testing"

	"grophecy/internal/datausage"
	"grophecy/internal/errdefs"
	"grophecy/internal/measure"
)

// TestDegradeLadderRungs pins each rung of the degradation ladder for
// every subject: the value it returns and the note it writes, byte for
// byte, and that a non-degradable error or a failing fallback writes
// nothing.
func TestDegradeLadderRungs(t *testing.T) {
	plan, err := datausage.Analyze(testWorkload(64, 1).Seq, datausage.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	tr := plan.Uploads[0]
	desc := tr.String()
	cause := errdefs.Transientf("boom")
	e := cause.Error()
	fixed := func(v float64) func() (float64, error) {
		return func() (float64, error) { return v, nil }
	}
	partial := measure.Result{Value: 2, Samples: 3, Retries: 4}
	none := measure.Result{Retries: 4}

	for _, tc := range []struct {
		kind  string
		name  any
		res   measure.Result
		using string
		want  float64
		note  string
	}{
		{"kernel", "k1", partial, "analytical prediction", 2,
			"kernel k1: measurement cut short (3 samples kept): " + e},
		{"kernel", "k1", none, "analytical prediction", 7,
			"kernel k1: measurement unrecoverable, using analytical prediction: " + e},
		{"transfer", tr, partial, "model prediction", 2,
			"transfer " + desc + ": measurement cut short (3 samples kept): " + e},
		{"transfer", tr, none, "model prediction", 7,
			"transfer " + desc + ": measurement unrecoverable, using model prediction: " + e},
		{"CPU baseline", nil, partial, "noiseless model time", 2,
			"CPU baseline: measurement cut short (3 samples kept): " + e},
		{"CPU baseline", nil, none, "noiseless model time", 7,
			"CPU baseline: measurement unrecoverable, using noiseless model time: " + e},
	} {
		var notes []string
		got, err := degrade(context.Background(), tc.kind, tc.name, tc.res, cause, tc.using, fixed(7), &notes)
		if err != nil || got != tc.want {
			t.Errorf("%s: degrade = %v, %v; want %v, nil", tc.note, got, err, tc.want)
		}
		if len(notes) != 1 || notes[0] != tc.note {
			t.Errorf("notes = %q, want [%q]", notes, tc.note)
		}
	}

	var notes []string
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := degrade(ctx, "kernel", "k1", partial, cause, "analytical prediction", fixed(7), &notes); !errors.Is(err, cause) {
		t.Errorf("cancelled context: err = %v, want the measurement error", err)
	}
	invalid := errdefs.Invalidf("bad")
	if _, err := degrade(context.Background(), "kernel", "k1", partial, invalid, "analytical prediction", fixed(7), &notes); !errors.Is(err, invalid) {
		t.Errorf("invalid input: err = %v, want it propagated", err)
	}
	berr := errors.New("no base time")
	failing := func() (float64, error) { return 0, berr }
	if _, err := degrade(context.Background(), "CPU baseline", nil, none, cause, "noiseless model time", failing, &notes); !errors.Is(err, berr) {
		t.Errorf("failing fallback: err = %v, want %v", err, berr)
	}
	if len(notes) != 0 {
		t.Errorf("propagated errors wrote notes %q", notes)
	}
}
