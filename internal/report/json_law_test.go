package report

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/target"
)

// TestJSONIsMarshalIndent is the encoder law: JSON's bytes equal
// json.MarshalIndent(newJSONReport(r), "", "  ") for every registered
// target × backend × the ten paper workloads, clean and under a fault
// plan that fills the resilience fields and degradation notes.
func TestJSONIsMarshalIndent(t *testing.T) {
	ws, err := bench.All()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan("transient=0.02,outlier=0.01:8")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tgt := range target.Default.List() {
		for _, bk := range backend.Default.Names() {
			for _, armed := range []bool{false, true} {
				m := tgt.Machine(experiments.DefaultSeed)
				if armed {
					m.ArmFaults(plan)
				}
				p, err := core.New(ctx, m, core.Options{Backend: bk, Memory: tgt.Memory})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range ws {
					r, err := p.Evaluate(ctx, w)
					if err != nil {
						t.Fatal(err)
					}
					got, err := JSON(r)
					if err != nil {
						t.Fatal(err)
					}
					want, err := json.MarshalIndent(newJSONReport(r), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s/%s faults=%v %s %s: JSON differs from MarshalIndent:\n--- got ---\n%s\n--- want ---\n%s",
							tgt.Name, bk, armed, w.Name, w.DataSize, got, want)
					}
				}
			}
		}
	}
}

// TestAppendIndented: the indenter reproduces MarshalIndent on values
// whose strings hold every byte it must not mistake for structure.
func TestAppendIndented(t *testing.T) {
	cases := []any{
		nil,
		0,
		-1.5e-07,
		true,
		"",
		`"`,
		`\`,
		`\"`,
		`"\`,
		"{}[],:",
		"<>&",
		" ",
		"\t\n\r  π ≠ 3",
		[]any{},
		map[string]any{},
		[]any{[]any{}, map[string]any{}, []any{[]any{}}},
		map[string]any{"": map[string]any{}, "a": []any{}, "b": nil},
		map[string]any{`k"{`: `v\]`, "n": []any{1, "x,y", nil, false}},
		map[string]any{"deep": []any{map[string]any{"x": []any{map[string]any{"y": []any{}}}}}},
	}
	for _, v := range cases {
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := appendIndented(nil, compact); !bytes.Equal(got, want) {
			t.Errorf("appendIndented(%s) =\n%s\nwant\n%s", compact, got, want)
		}
	}
}
