package golden

import (
	"context"
	"slices"
	"strings"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/pcie"
	"grophecy/internal/target"
)

// TestMeasuredTruthSharedAcrossBackends is the measured-truth law: a
// backend's calibration never changes the measurements it is judged
// against. On every registered target at the default seed, over the
// ten paper workloads, every backend measures the same transfer and
// CPU times, and the same kernel times wherever it chose the same
// variant. The default target holds the law under goldenPlan too,
// where every backend also takes the same measurement fallbacks; a
// value that fell back to a prediction is not a measurement and is
// not compared.
func TestMeasuredTruthSharedAcrossBackends(t *testing.T) {
	ws, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range target.Default.List() {
		t.Run(tgt.Name, func(t *testing.T) {
			checkMeasuredTruth(t, func() *core.Machine { return tgt.Machine(experiments.DefaultSeed) }, tgt.Memory, ws)
		})
	}
	t.Run("faults", func(t *testing.T) {
		plan, err := fault.ParsePlan(goldenPlan)
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := target.Lookup("")
		if err != nil {
			t.Fatal(err)
		}
		checkMeasuredTruth(t, func() *core.Machine {
			m := tgt.Machine(experiments.DefaultSeed)
			m.ArmFaults(plan)
			return m
		}, tgt.Memory, ws)
	})
}

// checkMeasuredTruth evaluates every workload through every backend,
// each on a fresh machine, and compares each backend's measurements
// with the first backend's.
func checkMeasuredTruth(t *testing.T, machine func() *core.Machine, kind pcie.MemoryKind, ws []core.Workload) {
	t.Helper()
	ctx := context.Background()
	names := backend.Default.Names()
	for _, w := range ws {
		var ref core.Report
		for i, bk := range names {
			p, err := core.New(ctx, machine(), core.Options{Backend: bk, Memory: kind})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Evaluate(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = rep
				continue
			}
			where := w.Name + " " + w.DataSize + ": " + bk + " vs " + names[0]
			if got, want := measurementNotes(rep), measurementNotes(ref); !slices.Equal(got, want) {
				t.Errorf("%s: measurement fallbacks differ:\n%q\n%q", where, got, want)
				continue
			}
			if rep.CPUTime != ref.CPUTime {
				t.Errorf("%s: CPU time %g != %g", where, rep.CPUTime, ref.CPUTime)
			}
			if len(rep.Transfers) != len(ref.Transfers) || len(rep.Kernels) != len(ref.Kernels) {
				t.Errorf("%s: %d transfers and %d kernels, want %d and %d", where,
					len(rep.Transfers), len(rep.Kernels), len(ref.Transfers), len(ref.Kernels))
				continue
			}
			for j, tr := range rep.Transfers {
				if substituted(rep, "transfer "+tr.Transfer.String()) {
					continue
				}
				if tr.Measured != ref.Transfers[j].Measured {
					t.Errorf("%s: %v measured %g != %g", where, tr.Transfer, tr.Measured, ref.Transfers[j].Measured)
				}
			}
			for j, k := range rep.Kernels {
				if k.Variant.Name != ref.Kernels[j].Variant.Name || substituted(rep, "kernel "+k.Kernel) {
					continue
				}
				if k.Measured != ref.Kernels[j].Measured {
					t.Errorf("%s: kernel %s (%s) measured %g != %g", where, k.Kernel, k.Variant.Name,
						k.Measured, ref.Kernels[j].Measured)
				}
			}
		}
	}
}

// measurementNotes are a report's degradation notes without the
// calibration's, which are each backend's own.
func measurementNotes(rep core.Report) []string {
	var out []string
	for _, n := range rep.Degradations {
		if !strings.HasPrefix(n, "calibration: ") {
			out = append(out, n)
		}
	}
	return out
}

// substituted reports whether the measurement of subject fell back
// to a prediction.
func substituted(rep core.Report, subject string) bool {
	for _, n := range rep.Degradations {
		if strings.HasPrefix(n, subject+": measurement unrecoverable") {
			return true
		}
	}
	return false
}
