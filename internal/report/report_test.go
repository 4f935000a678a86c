package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"grophecy/internal/core"
)

// TestCompactJSONIsCompactedJSON: CompactJSON is byte-equal to
// json.Compact of JSON, escaped characters in strings included.
func TestCompactJSONIsCompactedJSON(t *testing.T) {
	rep := core.Report{
		Name: "HotSpot <tiled> & \"fused\"", DataSize: "1024 x 1024", Iterations: 3,
		Kernels: []core.KernelResult{{}},
		CPUTime: 1e-2, PredKernelTime: 1e-3, MeasKernelTime: 1.2e-3,
		PredTransferTime: 4e-3, MeasTransferTime: 4.1e-3,
		Resilient:    true,
		Degradations: []string{"calibration: two-point → robust\tfallback", "π ≠ 3"},
	}
	indented, err := JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, indented); err != nil {
		t.Fatal(err)
	}
	got, err := CompactJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("CompactJSON differs from compacted JSON:\n--- got ---\n%s\n--- want ---\n%s", got, want.Bytes())
	}
	if bytes.ContainsAny(got, "\n") {
		t.Errorf("CompactJSON spans lines:\n%s", got)
	}
}
