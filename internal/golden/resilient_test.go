package golden

import (
	"context"
	"path/filepath"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
)

// goldenPlan is the fault plan the resilient goldens run under: rare
// transient failures plus outlier bursts, enough to exercise retries
// and the robust estimator on every workload.
const goldenPlan = "transient=0.02,outlier=0.01:8"

// evaluateResilient runs one skeleton file through a backend's
// resilient pipeline on a machine armed with goldenPlan at the
// default seed, exactly as `grophecy -skeleton ... -backend ...
// -faults goldenPlan` does.
func evaluateResilient(t *testing.T, name, backendName string) core.Report {
	t.Helper()
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", name+".sk"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan(goldenPlan)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(experiments.DefaultSeed)
	m.ArmFaults(plan)
	p, err := core.New(context.Background(), m, core.Options{Backend: backendName})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestResilientGoldenReports pins the resilient pipeline's JSON
// reports (which carry the Resilient flag and every degradation) for
// the four paper workloads under goldenPlan, through every backend.
// The analytic files predate the single projector constructor and
// must never be regenerated.
func TestResilientGoldenReports(t *testing.T) {
	for _, bk := range backend.Default.Names() {
		for _, name := range skeletons {
			t.Run(bk+"/"+name, func(t *testing.T) {
				data, err := report.JSON(evaluateResilient(t, name, bk))
				if err != nil {
					t.Fatal(err)
				}
				file := name + "-" + bk + "-faults.json"
				if bk == backend.DefaultName {
					file = name + "-faults.json"
				}
				check(t, file, append(data, '\n'))
			})
		}
	}
}
