package golden

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
)

// evaluateBackend runs the full pipeline on one skeleton file through
// a named prediction backend at the default seed, exactly as
// `grophecy -skeleton ... -backend ...` does.
func evaluateBackend(t *testing.T, name, backendName string) core.Report {
	t.Helper()
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", name+".sk"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), core.NewMachine(experiments.DefaultSeed), core.Options{Backend: backendName})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestBackendGoldenReports pins the fitted and piecewise backends'
// text reports on the four paper workloads, the same way the analytic
// golden files pin the default pipeline. Regenerate with -update
// after intended model changes.
func TestBackendGoldenReports(t *testing.T) {
	for _, bk := range []string{"fitted", "piecewise"} {
		for _, name := range skeletons {
			t.Run(bk+"/"+name, func(t *testing.T) {
				rep := evaluateBackend(t, name, bk)
				check(t, name+"-"+bk+".txt", []byte(report.Text(rep)))
			})
		}
	}
}

// TestAnalyticBackendByteIdentity is the refactor's core contract:
// the analytic backend resolved through the registry produces reports
// byte-identical to the pre-backend golden files — the same files
// TestGoldenTextReports checks through core.New's zero Options. A
// diff here means naming the backend changed a noise draw or a
// prediction on the default path.
func TestAnalyticBackendByteIdentity(t *testing.T) {
	for _, name := range skeletons {
		t.Run(name, func(t *testing.T) {
			rep := evaluateBackend(t, name, backend.DefaultName)
			got := []byte(report.Text(rep))
			// Never -update through this test: the analytic files are
			// owned by TestGoldenTextReports; this test only verifies.
			legacy := []byte(report.Text(evaluate(t, name)))
			if !bytes.Equal(got, legacy) {
				t.Fatalf("analytic backend diverged from the zero Options on %s", name)
			}
			check(t, name+".txt", got)
		})
	}
}

// TestRestoredBackendMatchesLive: for every backend, a projector
// restored from the persisted part of a calibration (the fit and the
// bus noise state) predicts exactly what the live-calibrated
// projector predicted. This is the invariant the daemon's snapshot
// warm-start depends on.
func TestRestoredBackendMatchesLive(t *testing.T) {
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", "hotspot.sk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range backend.Default.Names() {
		t.Run(bk, func(t *testing.T) {
			m := core.NewMachine(experiments.DefaultSeed)
			p, err := core.New(context.Background(), m, core.Options{Backend: bk})
			if err != nil {
				t.Fatal(err)
			}
			// Only what the snapshot store persists.
			cal := core.Calibration{Fit: p.Calibration().Fit, BusState: p.Calibration().BusState}
			liveRep, err := p.Evaluate(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			live, err := report.JSON(liveRep)
			if err != nil {
				t.Fatal(err)
			}

			rp, err := core.Restore(core.NewMachine(experiments.DefaultSeed), cal)
			if err != nil {
				t.Fatal(err)
			}
			restoredRep, err := rp.Evaluate(context.Background(), w)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := report.JSON(restoredRep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live, restored) {
				t.Errorf("restored %s projector diverged from the live calibration", bk)
			}
		})
	}
}
