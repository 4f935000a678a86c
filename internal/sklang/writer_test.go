package sklang

import (
	"context"
	"strings"
	"testing"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/datausage"
	"grophecy/internal/gpu"
	"grophecy/internal/skeleton"
	"grophecy/internal/transform"
)

func TestFormatRejectsInvalidWorkload(t *testing.T) {
	if _, err := Format(core.Workload{}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestFormatBlurRoundTrip(t *testing.T) {
	orig := parseBlur(t)
	src, err := Format(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(src)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, src)
	}
	assertEquivalent(t, orig, back)
}

// TestFormatBuiltinsRoundTrip is the strongest writer test: every
// built-in benchmark serializes to text and parses back to a workload
// with identical analytical behaviour.
func TestFormatBuiltinsRoundTrip(t *testing.T) {
	arch := gpu.QuadroFX5600()
	for _, w := range bench.MustAll() {
		src, err := Format(w)
		if err != nil {
			t.Fatalf("%s %s: %v", w.Name, w.DataSize, err)
		}
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("%s %s: re-parse failed: %v\nsource:\n%s", w.Name, w.DataSize, err, src)
		}
		assertEquivalent(t, w, back)

		// Transfer plans must match exactly.
		origPlan := datausage.MustAnalyze(w.Seq, w.Hints)
		backPlan := datausage.MustAnalyze(back.Seq, back.Hints)
		if origPlan.UploadBytes() != backPlan.UploadBytes() ||
			origPlan.DownloadBytes() != backPlan.DownloadBytes() ||
			origPlan.TransferCount() != backPlan.TransferCount() {
			t.Errorf("%s %s: transfer plans differ: %v vs %v",
				w.Name, w.DataSize, origPlan, backPlan)
		}

		// The transformation explorer must reach the same best
		// variant on every kernel.
		for i := range w.Seq.Kernels {
			ov, op, err := transform.Best(context.Background(), w.Seq.Kernels[i], arch)
			if err != nil {
				t.Fatal(err)
			}
			bv, bp, err := transform.Best(context.Background(), back.Seq.Kernels[i], arch)
			if err != nil {
				t.Fatal(err)
			}
			if ov.Name != bv.Name || op.Time != bp.Time {
				t.Errorf("%s %s kernel %s: best variant %s (%v) vs %s (%v)",
					w.Name, w.DataSize, w.Seq.Kernels[i].Name,
					ov.Name, op.Time, bv.Name, bp.Time)
			}
		}
	}
}

func assertEquivalent(t *testing.T, a, b core.Workload) {
	t.Helper()
	if a.Name != b.Name || a.DataSize != b.DataSize {
		t.Errorf("header differs: %q/%q vs %q/%q", a.Name, a.DataSize, b.Name, b.DataSize)
	}
	if a.Seq.Iterations != b.Seq.Iterations || len(a.Seq.Kernels) != len(b.Seq.Kernels) {
		t.Fatalf("sequence shape differs")
	}
	for i := range a.Seq.Kernels {
		ka, kb := a.Seq.Kernels[i], b.Seq.Kernels[i]
		if ka.Name != kb.Name {
			t.Errorf("kernel %d name %q vs %q", i, ka.Name, kb.Name)
		}
		if ka.ParallelIterations() != kb.ParallelIterations() ||
			ka.SequentialIterations() != kb.SequentialIterations() {
			t.Errorf("kernel %s iteration space differs", ka.Name)
		}
		if ka.FlopsPerThread() != kb.FlopsPerThread() {
			t.Errorf("kernel %s flops differ: %d vs %d",
				ka.Name, ka.FlopsPerThread(), kb.FlopsPerThread())
		}
		if ka.LoadBytesPerThread() != kb.LoadBytesPerThread() ||
			ka.StoreBytesPerThread() != kb.StoreBytesPerThread() {
			t.Errorf("kernel %s traffic differs", ka.Name)
		}
	}
	if a.CPU.Elements != b.CPU.Elements || a.CPU.FlopsPerElem != b.CPU.FlopsPerElem ||
		a.CPU.BytesPerElem != b.CPU.BytesPerElem ||
		a.CPU.TranscendentalsPerElem != b.CPU.TranscendentalsPerElem ||
		a.CPU.IrregularFraction != b.CPU.IrregularFraction ||
		a.CPU.Vectorizable != b.CPU.Vectorizable || a.CPU.Regions != b.CPU.Regions {
		t.Errorf("cpu workload differs: %+v vs %+v", a.CPU, b.CPU)
	}
}

func TestFormatIndexForms(t *testing.T) {
	cases := []struct {
		e    skeleton.IndexExpr
		want string
	}{
		{skeleton.Idx("i"), "i"},
		{skeleton.IdxPlus("i", -1), "i-1"},
		{skeleton.IdxPlus("i", 2), "i+2"},
		{skeleton.IdxScaled("j", 2, 0), "2*j"},
		{skeleton.IdxScaled("j", -1, 0), "-j"},
		{skeleton.IdxConst(0), "0"},
		{skeleton.IdxConst(-3), "-3"},
		{skeleton.IdxSum("i", 16, "j", 1, 0), "16*i+j"},
		{skeleton.IdxIrregular(), "?"},
	}
	for _, c := range cases {
		got, err := formatIndex(c.e)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("formatIndex(%v) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{5, "5"},
		{0, "0"},
		{0.5, "0.5"},
		{2.25, "2.25"},
	}
	for _, c := range cases {
		if got := formatNumber(c.in); got != c.want {
			t.Errorf("formatNumber(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatOutputIsReadable(t *testing.T) {
	w, err := bench.HotSpot("512 x 512")
	if err != nil {
		t.Fatal(err)
	}
	src, err := Format(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`workload "HotSpot" size "512 x 512"`,
		"array temp[512][512] float32",
		"parfor i in 0..512",
		"load temp[i-1][j]",
		"sequence iterations=1 { hotspot_stencil }",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("formatted source missing %q:\n%s", want, src)
		}
	}
}

func TestFormatIdempotent(t *testing.T) {
	// Format normalizes hoisted statements to the prologue position;
	// a second Format/Parse cycle must be a fixed point.
	for _, w := range bench.MustAll() {
		once, err := Format(w)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(once)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := Format(back)
		if err != nil {
			t.Fatal(err)
		}
		if once != twice {
			t.Errorf("%s %s: Format not idempotent", w.Name, w.DataSize)
		}
	}
}
