package golden

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/sklang"
)

// evaluatePipeline runs skeletons/pipeline.sk, the multi-phase
// program, through a backend at the default seed, on a machine armed
// with plan when plan is non-empty, exactly as `grophecy -skeleton
// skeletons/pipeline.sk -backend ... -faults ...` does.
func evaluatePipeline(t *testing.T, backendName, plan string) core.ProgramReport {
	t.Helper()
	pw, err := sklang.ParseProgramFile(filepath.Join("..", "..", "skeletons", "pipeline.sk"))
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(experiments.DefaultSeed)
	if plan != "" {
		fp, err := fault.ParsePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		m.ArmFaults(fp)
	}
	p, err := core.New(context.Background(), m, core.Options{Backend: backendName})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.EvaluateProgram(context.Background(), pw.Prog, pw.CPU)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGoldenProgramReports pins the program path's report, clean and
// under goldenPlan, and clean through the fitted and piecewise
// backends. The analytic files were recorded before program phases
// ran the engine's kernel and transfer code and must never be
// regenerated: for the analytic backend the shared code prices
// exactly what the old copied loops did.
func TestGoldenProgramReports(t *testing.T) {
	for _, tc := range []struct{ file, backend, plan string }{
		{"pipeline.json", "analytic", ""},
		{"pipeline-faults.json", "analytic", goldenPlan},
		{"pipeline-fitted.json", "fitted", ""},
		{"pipeline-piecewise.json", "piecewise", ""},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := json.MarshalIndent(evaluatePipeline(t, tc.backend, tc.plan), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			check(t, tc.file, append(data, '\n'))
		})
	}
}

// degradationPlan fails most measurement attempts, so the resilient
// pipeline walks every rung of its degradation ladder.
const degradationPlan = "transient=0.7,seed=1"

// TestGoldenDegradationNotes pins the resilient pipeline's
// degradation notes, byte for byte, over every paper workload
// evaluated in turn on one projector armed with degradationPlan, and
// checks that the plan reaches all six ladder
// rungs: a partial estimate and a fallback for each of kernel,
// transfer and CPU measurements.
func TestGoldenDegradationNotes(t *testing.T) {
	plan, err := fault.ParsePlan(degradationPlan)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(experiments.DefaultSeed)
	m.ArmFaults(plan)
	p, err := core.New(context.Background(), m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, w := range bench.MustAll() {
		rep, err := p.Evaluate(context.Background(), w)
		if err != nil {
			t.Fatalf("%s %s: %v", w.Name, w.DataSize, err)
		}
		fmt.Fprintf(&b, "== %s %s (%d)\n", w.Name, w.DataSize, len(rep.Degradations))
		for _, d := range rep.Degradations {
			fmt.Fprintf(&b, "%s\n", d)
		}
	}
	got := b.String()
	for _, rung := range []string{
		"kernel * measurement cut short",
		"kernel * measurement unrecoverable, using analytical prediction",
		"transfer * measurement cut short",
		"transfer * measurement unrecoverable, using model prediction",
		"CPU baseline: measurement cut short",
		"CPU baseline: measurement unrecoverable, using noiseless model time",
	} {
		head, tail, _ := strings.Cut(rung, " * ")
		if !containsLine(got, head, tail) {
			t.Errorf("plan %q never reaches rung %q", degradationPlan, rung)
		}
	}
	check(t, "degradations.txt", []byte(got))
}

// containsLine reports whether some line of s starts with prefix and
// contains substr.
func containsLine(s, prefix, substr string) bool {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) && strings.Contains(line, substr) {
			return true
		}
	}
	return false
}
