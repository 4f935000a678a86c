// Package golden pins the user-visible output of the projection
// pipeline byte for byte. Every report here is produced at the
// default experiment seed, so any change to these files is either a
// deliberate output change (regenerate with -update) or a determinism
// regression (investigate before updating).
//
//	go test ./internal/golden -update   # regenerate after intended changes
package golden

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// skeletons are the four paper workloads with single-workload
// skeleton files (pipeline.sk is a multi-phase program and has its
// own rendering path).
var skeletons = []string{"cfd", "hotspot", "srad", "stassuij"}

// evaluate runs the full pipeline on one skeleton file at the
// default seed, exactly as `grophecy -skeleton` does.
func evaluate(t *testing.T, name string) core.Report {
	t.Helper()
	w, err := sklang.ParseFile(filepath.Join("..", "..", "skeletons", name+".sk"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(context.Background(), core.NewMachine(experiments.DefaultSeed), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// check compares got against the golden file, or rewrites the file
// under -update.
func check(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is intended, regenerate with `go test ./internal/golden -update`.",
			file, got, want)
	}
}

func TestGoldenTextReports(t *testing.T) {
	for _, name := range skeletons {
		t.Run(name, func(t *testing.T) {
			rep := evaluate(t, name)
			check(t, name+".txt", []byte(report.Text(rep)))
		})
	}
}

func TestGoldenJSONReport(t *testing.T) {
	rep := evaluate(t, "hotspot")
	data, err := report.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	check(t, "hotspot.json", append(data, '\n'))
}

// TestGoldenTable1 pins the paper's Table I render — the summary the
// whole evaluation hangs off — at the default seed.
func TestGoldenTable1(t *testing.T) {
	ctx, err := experiments.NewContext(experiments.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ctx.Table1()
	if err != nil {
		t.Fatal(err)
	}
	check(t, "table1.txt", []byte(experiments.RenderTable1(rows)))
}

// TestGoldenDeterminism re-runs one workload on a fresh machine and
// requires the rendered report to be identical — the property the
// golden files rely on.
func TestGoldenDeterminism(t *testing.T) {
	a := report.Text(evaluate(t, "hotspot"))
	b := report.Text(evaluate(t, "hotspot"))
	if a != b {
		t.Fatalf("two runs at the same seed rendered differently:\n%s\n---\n%s", a, b)
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if *update {
		fmt.Println("golden: files regenerated")
	}
	os.Exit(code)
}
