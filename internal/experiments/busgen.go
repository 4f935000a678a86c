package experiments

import (
	"context"
	"fmt"
	"strings"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/pcie"
	"grophecy/internal/target"
)

// Bus-generation study: the paper's vector-addition argument (§II-B)
// quantified over the real benchmarks — how much of the transfer
// bottleneck does a faster bus actually remove? The GPU and CPU stay
// fixed (the paper's node); only the PCIe link is upgraded, isolating
// the bus's contribution to the measured speedup.

// BusGenRow is one workload's measured outcome across bus generations.
type BusGenRow struct {
	App      string
	DataSize string
	// Speedup and PercentTransfer are indexed like the paper's three
	// PCIe generations, pcie.Profiles()[:3] (v1, v2, v3).
	Speedup         [3]float64
	PercentTransfer [3]float64
}

// BusGenerations evaluates every workload on each bus generation.
// Per-kernel wall-clock spans attach to the trace ctx carries.
func BusGenerations(ctx context.Context, seed uint64) ([]BusGenRow, error) {
	ws, err := bench.All()
	if err != nil {
		return nil, err
	}
	rows := make([]BusGenRow, len(ws))
	for i, w := range ws {
		rows[i] = BusGenRow{App: w.Name, DataSize: w.DataSize}
	}
	for g, gen := range pcie.Profiles()[:3] {
		// The paper's GPU/CPU on each bus generation — exactly the
		// registered fx5600-pcie<N> targets.
		tgt, err := target.Lookup(fmt.Sprintf("fx5600-pcie%d", g+1))
		if err != nil {
			return nil, err
		}
		p, err := core.New(ctx, tgt.Machine(seed), core.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", gen.Name, err)
		}
		for i, w := range ws {
			rep, err := p.Evaluate(ctx, w)
			if err != nil {
				return nil, err
			}
			rows[i].Speedup[g] = rep.MeasuredSpeedup()
			rows[i].PercentTransfer[g] = rep.PercentTransfer()
		}
	}
	return rows, nil
}

// RenderBusGenerations prints the study.
func RenderBusGenerations(rows []BusGenRow) string {
	gens := pcie.Profiles()[:3]
	var b strings.Builder
	b.WriteString("Bus generations: measured speedup and transfer share, same GPU/CPU,\n")
	b.WriteString("upgraded PCIe link (the paper's §II-B bandwidth ladder)\n")
	fmt.Fprintf(&b, "%-10s %-20s", "App", "Data Size")
	for _, g := range gens {
		fmt.Fprintf(&b, " | %11s", g.Name)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-20s", r.App, r.DataSize)
		for g := range gens {
			fmt.Fprintf(&b, " | %5.2fx %3.0f%%", r.Speedup[g], 100*r.PercentTransfer[g])
		}
		b.WriteString("\n")
	}
	b.WriteString("(columns: measured speedup, transfer share of GPU time)\n")
	return b.String()
}
