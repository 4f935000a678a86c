// Package report renders core.Report as text or JSON. It is the
// single rendering path shared by the grophecy CLI and the golden
// tests (internal/golden), so that what the tests pin byte-for-byte
// is exactly what users see.
package report

import (
	"encoding/json"
	"fmt"
	"strings"

	"grophecy/internal/core"
	"grophecy/internal/units"
)

// Text renders the full human-readable projection report: the data
// transfer plan, the chosen transformation per kernel, predicted vs
// measured kernel and transfer times, and the projected speedups with
// and without data transfer modeling.
func Text(r core.Report) string {
	var b strings.Builder

	fmt.Fprintf(&b, "workload %s %s, %d iteration(s)\n\n", r.Name, r.DataSize, r.Iterations)

	b.WriteString("transfer plan (data usage analysis):\n")
	b.WriteString(indent(r.Plan.String()))
	b.WriteString("\n")

	b.WriteString("kernels (best transformation per GROPHECY exploration):\n")
	for _, k := range r.Kernels {
		fmt.Fprintf(&b, "  %-22s %-22s predicted %10s  measured %10s\n",
			k.Kernel, k.Variant.Name,
			units.FormatSeconds(k.Predicted), units.FormatSeconds(k.Measured))
	}
	b.WriteString("\n")

	b.WriteString("transfers (pinned memory, linear PCIe model):\n")
	for _, tr := range r.Transfers {
		fmt.Fprintf(&b, "  %-46s predicted %10s  measured %10s\n",
			tr.Transfer, units.FormatSeconds(tr.Predicted), units.FormatSeconds(tr.Measured))
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "totals over %d iteration(s):\n", r.Iterations)
	fmt.Fprintf(&b, "  kernel time:    predicted %10s  measured %10s (err %4.1f%%)\n",
		units.FormatSeconds(r.PredKernelTime), units.FormatSeconds(r.MeasKernelTime),
		100*r.KernelErr())
	fmt.Fprintf(&b, "  transfer time:  predicted %10s  measured %10s (err %4.1f%%)\n",
		units.FormatSeconds(r.PredTransferTime), units.FormatSeconds(r.MeasTransferTime),
		100*r.TransferErr())
	fmt.Fprintf(&b, "  total GPU time: predicted %10s  measured %10s\n",
		units.FormatSeconds(r.PredTotalGPU()), units.FormatSeconds(r.MeasTotalGPU()))
	fmt.Fprintf(&b, "  CPU time (8-thread OpenMP baseline): %s\n", units.FormatSeconds(r.CPUTime))
	fmt.Fprintf(&b, "  transfer share of GPU time: %.0f%%\n\n", 100*r.PercentTransfer())

	b.WriteString("projected GPU speedup:\n")
	fmt.Fprintf(&b, "  measured:                 %6.2fx\n", r.MeasuredSpeedup())
	fmt.Fprintf(&b, "  GROPHECY++ (kernel+xfer): %6.2fx  (error %.1f%%)\n",
		r.SpeedupFull(), 100*r.ErrFull())
	fmt.Fprintf(&b, "  kernel only (GROPHECY):   %6.2fx  (error %.1f%%)\n",
		r.SpeedupKernelOnly(), 100*r.ErrKernelOnly())
	fmt.Fprintf(&b, "  transfer only:            %6.2fx  (error %.1f%%)\n",
		r.SpeedupTransferOnly(), 100*r.ErrTransferOnly())

	if r.SpeedupKernelOnly() > 1 && r.MeasuredSpeedup() < 1 {
		b.WriteString("\nNOTE: ignoring data transfer predicts a GPU win, but the port\n")
		b.WriteString("would actually be a slowdown — transfer modeling flips the verdict.\n")
	}
	return b.String()
}

// jsonReport is the machine-readable projection: the report's raw
// numbers plus the derived quantities a consumer would otherwise have
// to recompute.
type jsonReport struct {
	core.Report
	Derived struct {
		MeasuredSpeedup     float64 `json:"measuredSpeedup"`
		SpeedupFull         float64 `json:"speedupFull"`
		SpeedupKernelOnly   float64 `json:"speedupKernelOnly"`
		SpeedupTransferOnly float64 `json:"speedupTransferOnly"`
		ErrFull             float64 `json:"errFull"`
		ErrKernelOnly       float64 `json:"errKernelOnly"`
		PercentTransfer     float64 `json:"percentTransfer"`
	} `json:"derived"`
}

func newJSONReport(r core.Report) jsonReport {
	out := jsonReport{Report: r}
	out.Derived.MeasuredSpeedup = r.MeasuredSpeedup()
	out.Derived.SpeedupFull = r.SpeedupFull()
	out.Derived.SpeedupKernelOnly = r.SpeedupKernelOnly()
	out.Derived.SpeedupTransferOnly = r.SpeedupTransferOnly()
	out.Derived.ErrFull = r.ErrFull()
	out.Derived.ErrKernelOnly = r.ErrKernelOnly()
	out.Derived.PercentTransfer = r.PercentTransfer()
	return out
}

// JSON renders the report as indented JSON, including the derived
// speedup and error figures.
func JSON(r core.Report) ([]byte, error) {
	return json.MarshalIndent(newJSONReport(r), "", "  ")
}

// CompactJSON renders the same JSON value as JSON on one line: its
// bytes equal json.Compact of JSON's.
func CompactJSON(r core.Report) ([]byte, error) {
	return json.Marshal(newJSONReport(r))
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}
