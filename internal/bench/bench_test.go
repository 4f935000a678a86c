package bench

import (
	"testing"

	"grophecy/internal/datausage"
	"grophecy/internal/units"
)

func TestAllWorkloadsValidate(t *testing.T) {
	ws, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 10 { // 3 CFD + 3 HotSpot + 3 SRAD + 1 Stassuij
		t.Fatalf("workloads = %d, want 10", len(ws))
	}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Errorf("%s %s: %v", w.Name, w.DataSize, err)
		}
	}
}

func TestUnknownSizesRejected(t *testing.T) {
	if _, err := CFD("1M"); err == nil {
		t.Error("unknown CFD size accepted")
	}
	if _, err := HotSpot("128 x 128"); err == nil {
		t.Error("unknown HotSpot size accepted")
	}
	if _, err := SRAD("512 x 512"); err == nil {
		t.Error("unknown SRAD size accepted")
	}
}

func TestMustAllDoesNotPanic(t *testing.T) {
	if got := len(MustAll()); got != 10 {
		t.Fatalf("MustAll = %d workloads", got)
	}
}

// planFor analyzes one workload's transfer plan.
func planFor(t *testing.T, name, size string) datausage.Plan {
	t.Helper()
	for _, w := range MustAll() {
		if w.Name == name && w.DataSize == size {
			plan, err := datausage.Analyze(w.Seq, w.Hints)
			if err != nil {
				t.Fatal(err)
			}
			return plan
		}
	}
	t.Fatalf("workload %s %s not found", name, size)
	return datausage.Plan{}
}

func mb(bytes int64) float64 { return float64(bytes) / 1e6 }

func TestHotSpotTransferSizesMatchTableI(t *testing.T) {
	// Table I: 1024x1024 -> 8 MB in (temp + power), 4 MB out.
	plan := planFor(t, "HotSpot", "1024 x 1024")
	if got := plan.UploadBytes(); got != 2*4*1024*1024 {
		t.Errorf("upload bytes = %d, want 8MiB", got)
	}
	if got := plan.DownloadBytes(); got != 4*1024*1024 {
		t.Errorf("download bytes = %d, want 4MiB", got)
	}
	if len(plan.Uploads) != 2 || len(plan.Downloads) != 1 {
		t.Errorf("transfers = %d up, %d down", len(plan.Uploads), len(plan.Downloads))
	}
}

func TestSRADTransferSizesMatchTableI(t *testing.T) {
	// Table I: 2048x2048 -> 16 MB in, 16 MB out (just the image;
	// coefficients are GPU-resident temporaries).
	plan := planFor(t, "SRAD", "2048 x 2048")
	if got := plan.UploadBytes(); got != 4*2048*2048 {
		t.Errorf("upload bytes = %d, want 16MiB", got)
	}
	if got := plan.DownloadBytes(); got != 4*2048*2048 {
		t.Errorf("download bytes = %d, want 16MiB", got)
	}
	if len(plan.Uploads) != 1 || len(plan.Downloads) != 1 {
		t.Errorf("transfers = %d up, %d down", len(plan.Uploads), len(plan.Downloads))
	}
}

func TestCFDTransferSizesMatchTableI(t *testing.T) {
	// Table I: 97K -> 6.3 MB in, 1.9 MB out. Our inventory gives 16
	// floats in, 5 floats out per element.
	plan := planFor(t, "CFD", "97K")
	up, down := mb(plan.UploadBytes()), mb(plan.DownloadBytes())
	if up < 5.8 || up > 6.8 {
		t.Errorf("upload = %.2f MB, want ~6.3", up)
	}
	if down < 1.7 || down > 2.1 {
		t.Errorf("download = %.2f MB, want ~1.9", down)
	}
	// Only the conserved variables come back; step factors and
	// fluxes are temporaries.
	if len(plan.Downloads) != 1 || plan.Downloads[0].Array().Name != "variables" {
		t.Errorf("downloads = %v", plan.Downloads)
	}
}

func TestStassuijTransferSizesMatchTableI(t *testing.T) {
	// Table I: 8.5 MB in, 4.1 MB out.
	plan := planFor(t, "Stassuij", "132x132 x 132x2048")
	up, down := mb(plan.UploadBytes()), mb(plan.DownloadBytes())
	if up < 8.0 || up > 9.0 {
		t.Errorf("upload = %.2f MB, want ~8.5", up)
	}
	if down < 4.0 || down > 4.5 {
		t.Errorf("download = %.2f MB, want ~4.1", down)
	}
}

func TestStassuijConservativeSparseUpload(t *testing.T) {
	// The dense matrix x is gathered through data-dependent column
	// indices: the whole array must transfer (§III-B).
	plan := planFor(t, "Stassuij", "132x132 x 132x2048")
	var found bool
	for _, up := range plan.Uploads {
		if up.Array().Name == "x" {
			found = true
			if !up.Section.Whole && !up.Section.IsWholeArray() {
				t.Error("x upload is not whole-array")
			}
		}
	}
	if !found {
		t.Error("x not uploaded")
	}
}

func TestCFDScalesLinearlyWithElements(t *testing.T) {
	small := planFor(t, "CFD", "97K")
	large := planFor(t, "CFD", "233K")
	ratio := float64(large.TotalBytes()) / float64(small.TotalBytes())
	want := float64(cfdElements["233K"]) / float64(cfdElements["97K"])
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Errorf("transfer scaling = %v, want ~%v", ratio, want)
	}
}

func TestTransferPlansIndependentOfIterations(t *testing.T) {
	w, err := HotSpot("512 x 512")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := datausage.Analyze(w.Seq, w.Hints)
	if err != nil {
		t.Fatal(err)
	}
	p9, err := datausage.Analyze(w.Seq.WithIterations(9), w.Hints)
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalBytes() != p9.TotalBytes() {
		t.Error("plan depends on iteration count")
	}
}

func TestHotSpot64TinyTransfers(t *testing.T) {
	// Table I lists "< 0.1 MB" for both directions at 64x64.
	plan := planFor(t, "HotSpot", "64 x 64")
	if plan.UploadBytes() >= units.MB/8 || plan.DownloadBytes() >= units.MB/8 {
		t.Errorf("64x64 transfers too large: %d up, %d down",
			plan.UploadBytes(), plan.DownloadBytes())
	}
}

func TestCPUWorkloadsPositive(t *testing.T) {
	for _, w := range MustAll() {
		if err := w.CPU.Validate(); err != nil {
			t.Errorf("%s %s CPU workload: %v", w.Name, w.DataSize, err)
		}
	}
}

func TestHintsAccessor(t *testing.T) {
	w := Stassuij()
	h := Hints(w)
	if h.Temporaries != nil || h.SparseSections != nil {
		t.Error("unexpected default hints")
	}
}
