package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/fault"
)

const machineSeed = 42

// acceptancePlan is the ISSUE's scenario: at least 1% transient
// failures plus outlier bursts on every measurement surface.
func acceptancePlan() fault.Plan {
	return fault.Plan{
		TransientProb: 0.01,
		OutlierProb:   0.02, OutlierScale: 8, OutlierBurst: 2,
		Seed: 7,
	}
}

// benchWorkloads returns the four paper workloads at one
// representative size each.
func benchWorkloads(t *testing.T) []core.Workload {
	t.Helper()
	cfd, err := bench.CFD("233K")
	if err != nil {
		t.Fatal(err)
	}
	hs, err := bench.HotSpot("1024 x 1024")
	if err != nil {
		t.Fatal(err)
	}
	srad, err := bench.SRAD("4096 x 4096")
	if err != nil {
		t.Fatal(err)
	}
	return []core.Workload{cfd, hs, srad, bench.Stassuij()}
}

// resilientReports runs the full resilient pipeline (fault-armed
// machine, resilient calibration, robust evaluation) over the bench
// workloads and returns the reports JSON-encoded.
func resilientReports(t *testing.T, plan fault.Plan) []byte {
	t.Helper()
	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(plan)
	p, err := core.New(ctx, machine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var reports []core.Report
	for _, w := range benchWorkloads(t) {
		rep, err := p.Evaluate(ctx, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Resilient {
			t.Errorf("%s: report not flagged resilient", w.Name)
		}
		reports = append(reports, rep)
	}
	out, err := json.MarshalIndent(reports, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestResilientReportsByteIdentical(t *testing.T) {
	a := resilientReports(t, acceptancePlan())
	b := resilientReports(t, acceptancePlan())
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and fault plan produced different reports")
	}
}

func TestResilientSpeedupWithinMarginOfClean(t *testing.T) {
	// Clean baseline: the paper's raw pipeline, no faults.
	clean, err := core.New(context.Background(), core.NewMachine(machineSeed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(acceptancePlan())
	faulty, err := core.New(ctx, machine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The stated acceptance margin: with >= 1% transients plus outlier
	// bursts, the resilient pipeline's projected speedup stays within
	// 30% of the clean run's on every workload.
	const margin = 0.30
	for _, w := range benchWorkloads(t) {
		cr, err := clean.Evaluate(context.Background(), w)
		if err != nil {
			t.Fatalf("%s clean: %v", w.Name, err)
		}
		fr, err := faulty.Evaluate(ctx, w)
		if err != nil {
			t.Fatalf("%s faulty: %v", w.Name, err)
		}
		rel := math.Abs(fr.SpeedupFull()-cr.SpeedupFull()) / cr.SpeedupFull()
		if rel > margin {
			t.Errorf("%s: faulty speedup %.3f vs clean %.3f (%.1f%% off, margin %.0f%%)",
				w.Name, fr.SpeedupFull(), cr.SpeedupFull(), 100*rel, 100*margin)
		}
	}
}

func TestResilientDegradationsReported(t *testing.T) {
	// A brutal plan: 60% transients exhausts the 4-retry budget often
	// enough that degradations must appear, yet the pipeline still
	// completes every workload.
	plan := fault.Plan{TransientProb: 0.60, Seed: 3}
	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(plan)
	p, err := core.New(ctx, machine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawDegradation := false
	for _, w := range benchWorkloads(t) {
		rep, err := p.Evaluate(ctx, w)
		if err != nil {
			t.Fatalf("%s: pipeline failed instead of degrading: %v", w.Name, err)
		}
		if len(rep.Degradations) > 0 {
			sawDegradation = true
		}
	}
	if !sawDegradation && !p.Health().Degraded() {
		t.Error("60% transient rate produced no recorded degradations")
	}
}

func TestResilientEvaluateCancelled(t *testing.T) {
	ctx := context.Background()
	machine := core.NewMachine(machineSeed)
	machine.ArmFaults(acceptancePlan())
	p, err := core.New(ctx, machine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	w := benchWorkloads(t)[0]
	if _, err := p.Evaluate(cancelled, w); err == nil {
		t.Fatal("cancelled evaluation succeeded")
	}
}

// TestRestoreMatchesLiveUnderFaults: for every backend, a projector
// restored from an armed calibration on a freshly armed machine
// evaluates byte-identically to the projector that calibrated — the
// property the calibration pool relies on to cache resilient
// calibrations.
func TestRestoreMatchesLiveUnderFaults(t *testing.T) {
	ctx := context.Background()
	w := benchWorkloads(t)[1]
	for _, bk := range backend.Default.Names() {
		t.Run(bk, func(t *testing.T) {
			m := core.NewMachine(machineSeed)
			m.ArmFaults(acceptancePlan())
			live, err := core.New(ctx, m, core.Options{Backend: bk})
			if err != nil {
				t.Fatal(err)
			}
			if live.Health() == nil {
				t.Fatal("armed calibration recorded no health")
			}
			m2 := core.NewMachine(machineSeed)
			m2.ArmFaults(acceptancePlan())
			restored, err := core.Restore(m2, live.Calibration())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Restore(core.NewMachine(machineSeed), live.Calibration()); err == nil {
				t.Error("armed calibration restored onto a clean machine")
			}
			a, err := live.Evaluate(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Evaluate(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			ja, _ := json.Marshal(a)
			jb, _ := json.Marshal(b)
			if !a.Resilient || !bytes.Equal(ja, jb) {
				t.Errorf("restored %s projector diverged from the live armed calibration", bk)
			}
			if m.Faults.Stats() != m2.Faults.Stats() {
				t.Errorf("fault stats diverged: live %v, restored %v", m.Faults.Stats(), m2.Faults.Stats())
			}
		})
	}
}
