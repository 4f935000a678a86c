package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestChartFig2(t *testing.T) {
	rows, err := getCtx(t).Fig2()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ChartFig2(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2 (chart)", "o pinned", "x pageable", ". model"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q", want)
		}
	}
}

func TestChartFig4(t *testing.T) {
	rows, _, err := getCtx(t).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ChartFig4(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "error magnitude") {
		t.Error("axis label missing")
	}
}

func TestChartFig5(t *testing.T) {
	points, _, err := getCtx(t).Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out, err := ChartFig5(points)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "y=x") || !strings.Contains(out, "o transfers") {
		t.Error("scatter legend missing")
	}
}

func TestChartIterSweep(t *testing.T) {
	sweep, err := getCtx(t).IterationSweep(context.Background(), "HotSpot", "1024 x 1024", []int{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ChartIterSweep("Figure 10", sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 10 (chart)", "o measured", "k pred kernel-only"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q", want)
		}
	}
}
