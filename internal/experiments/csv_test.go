package experiments

import (
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	files, err := getCtx(t).WriteCSV(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig2_transfer_sweep.csv", "fig4_model_error.csv", "table1_measured.csv",
		"fig5_transfer_scatter.csv", "fig6_error_pairs.csv",
		"speedup_by_size_CFD.csv", "speedup_by_size_HotSpot.csv", "speedup_by_size_SRAD.csv",
		"fig8_cfd_iters.csv", "fig10_hotspot_iters.csv", "fig12_srad_iters.csv",
		"table2_speedup_error.csv",
	}
	if len(files) != len(want) {
		t.Fatalf("wrote %d files, want %d: %v", len(files), len(want), files)
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(records) < 2 {
			t.Errorf("%s: only %d rows", name, len(records))
			continue
		}
		// Every data row has the header's column count (csv.Reader
		// enforces this, but assert the header is non-trivial).
		if len(records[0]) < 3 {
			t.Errorf("%s: header %v too narrow", name, records[0])
		}
	}

	// Spot-check numeric integrity of the transfer sweep: sizes are
	// increasing powers of two and times parse as positive floats.
	f, err := os.Open(filepath.Join(dir, "fig2_transfer_sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var prevSize int64
	for _, rec := range records[1:] {
		size, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil || size <= prevSize {
			t.Fatalf("bad size column: %v (%v)", rec[0], err)
		}
		prevSize = size
		for _, cell := range rec[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v <= 0 {
				t.Fatalf("bad time cell %q: %v", cell, err)
			}
		}
	}
}

func TestWriteCSVBadDir(t *testing.T) {
	// A path under a regular file cannot be created.
	tmp := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := getCtx(t).WriteCSV(context.Background(), filepath.Join(tmp, "sub")); err == nil {
		t.Error("writing under a file accepted")
	}
}
