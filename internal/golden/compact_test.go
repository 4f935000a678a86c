package golden

import (
	"bytes"
	"encoding/json"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/report"
)

// TestCompactJSONOfEveryGoldenReport: for every report a golden file
// pins — each backend, each target and each fault-armed run —
// report.CompactJSON is byte-equal to json.Compact of report.JSON, the
// encoding a streamed /batch row carries.
func TestCompactJSONOfEveryGoldenReport(t *testing.T) {
	reports := map[string]func(*testing.T) core.Report{}
	for _, name := range skeletons {
		for _, bk := range backend.Default.Names() {
			reports[name+"-"+bk] = func(t *testing.T) core.Report { return evaluateBackend(t, name, bk) }
			reports[name+"-"+bk+"-faults"] = func(t *testing.T) core.Report { return evaluateResilient(t, name, bk) }
		}
	}
	for _, tgt := range goldenTargets {
		reports["hotspot-"+tgt] = func(t *testing.T) core.Report { return evaluateOn(t, "hotspot", tgt) }
	}
	for name, eval := range reports {
		t.Run(name, func(t *testing.T) {
			rep := eval(t)
			indented, err := report.JSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Compact(&want, indented); err != nil {
				t.Fatal(err)
			}
			got, err := report.CompactJSON(rep)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("CompactJSON differs from compacted JSON:\n--- got ---\n%.400s\n--- want ---\n%.400s", got, want.Bytes())
			}
		})
	}
}
