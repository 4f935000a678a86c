package golden

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/engine"
	"grophecy/internal/experiments"
	"grophecy/internal/pcie"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/target"
)

// goldenTargets are the non-default hardware targets whose reports
// are pinned byte for byte: one moving the bus generation, one moving
// both the GPU era and the CPU. Together with the default-target
// files above, they pin all three axes of the registry.
var goldenTargets = []string{"c2050-pcie3", "c1060-pcie2-x5650"}

// evaluateOn runs the full pipeline on one skeleton file at the
// default seed on the named hardware target, exactly as
// `grophecy -skeleton -target` does.
func evaluateOn(t *testing.T, name, targetName string) core.Report {
	t.Helper()
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", name+".sk"))
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := target.Lookup(targetName)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), tgt.Machine(experiments.DefaultSeed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGoldenTargetReports(t *testing.T) {
	for _, tgt := range goldenTargets {
		t.Run(tgt, func(t *testing.T) {
			rep := evaluateOn(t, "hotspot", tgt)
			check(t, "hotspot-"+tgt+".txt", []byte(report.Text(rep)))
		})
	}
}

// TestGoldenTargetDeterminism asserts that the same (target, seed)
// yields byte-identical reports through both serving paths: the CLI's
// calibrate-every-time pipeline and the daemon's calibration cache —
// including a cache hit, which must not perturb a single byte.
func TestGoldenTargetDeterminism(t *testing.T) {
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", "hotspot.sk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{target.DefaultName}, goldenTargets...) {
		t.Run(name, func(t *testing.T) {
			cli := report.Text(evaluateOn(t, "hotspot", name))

			tgt, err := target.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			pool := engine.NewPool(0)
			for i, want := 0, []byte(cli); i < 2; i++ {
				p, err := pool.Projector(context.Background(), tgt, backend.DefaultName, experiments.DefaultSeed, pcie.Pinned)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := p.Evaluate(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				if got := []byte(report.Text(rep)); !bytes.Equal(got, want) {
					t.Fatalf("cached-path report (request %d) differs from the CLI path", i+1)
				}
			}
			if pool.Hits() != 1 || pool.Misses() != 1 {
				t.Fatalf("pool hits=%d misses=%d, want 1 and 1", pool.Hits(), pool.Misses())
			}
		})
	}
}
