package experiments

import (
	"context"
	"fmt"
	"strings"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/pcie"
)

// Pinned-assumption study: GROPHECY++ "assume[s] the use of pinned
// memory since it is advantageous in most typical use cases"
// (§III-C). This experiment quantifies that assumption end to end:
// every workload evaluated twice, once with pinned host buffers and
// once with pageable, both sides calibrated and measured consistently.

// PinnedRow is one workload's outcome under both memory kinds.
type PinnedRow struct {
	App          string
	DataSize     string
	PinnedXfer   float64 // measured transfer seconds
	PageableXfer float64
	PinnedSpeed  float64 // measured overall speedup
	PageableSpd  float64
}

// XferPenalty is the pageable/pinned transfer-time ratio.
func (r PinnedRow) XferPenalty() float64 { return r.PageableXfer / r.PinnedXfer }

// PinnedAssumption evaluates all workloads under both host memory
// kinds on machines derived from seed. Per-kernel wall-clock spans
// attach to the caller's trace.
func PinnedAssumption(ctx context.Context, seed uint64) ([]PinnedRow, error) {
	ws, err := bench.All()
	if err != nil {
		return nil, err
	}
	rows := make([]PinnedRow, len(ws))
	for i, w := range ws {
		rows[i] = PinnedRow{App: w.Name, DataSize: w.DataSize}
	}
	for _, kind := range []pcie.MemoryKind{pcie.Pinned, pcie.Pageable} {
		m := core.NewMachine(seed)
		p, err := core.New(ctx, m, core.Options{Memory: kind})
		if err != nil {
			return nil, err
		}
		for i, w := range ws {
			rep, err := p.Evaluate(ctx, w)
			if err != nil {
				return nil, fmt.Errorf("experiments: %v %s: %w", kind, w.Name, err)
			}
			if kind == pcie.Pinned {
				rows[i].PinnedXfer = rep.MeasTransferTime
				rows[i].PinnedSpeed = rep.MeasuredSpeedup()
			} else {
				rows[i].PageableXfer = rep.MeasTransferTime
				rows[i].PageableSpd = rep.MeasuredSpeedup()
			}
		}
	}
	return rows, nil
}

// RenderPinnedAssumption prints the study.
func RenderPinnedAssumption(rows []PinnedRow) string {
	var b strings.Builder
	b.WriteString("Pinned-memory assumption (§III-C): measured transfers and speedups\n")
	b.WriteString("under pinned vs pageable host buffers\n")
	fmt.Fprintf(&b, "%-10s %-20s %10s %10s %8s %9s %9s\n",
		"App", "Data Size", "pin xfer", "page xfer", "penalty", "pin spd", "page spd")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-20s %9.2fms %9.2fms %7.2fx %8.2fx %8.2fx\n",
			r.App, r.DataSize, 1e3*r.PinnedXfer, 1e3*r.PageableXfer,
			r.XferPenalty(), r.PinnedSpeed, r.PageableSpd)
	}
	return b.String()
}
