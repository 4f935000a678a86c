package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// CSV export: every table and figure as a machine-readable file, so
// the series can be re-plotted against the paper's charts with any
// plotting tool. One file per experiment, written by WriteCSV.

// WriteCSV regenerates every experiment and writes one CSV per
// table/figure into dir (created if missing). It returns the list of
// files written. Every regenerated experiment evaluates under ctx, so
// the caller's wall-clock trace sees the per-kernel spans of the full
// export.
func (c *Context) WriteCSV(ctx context.Context, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	write := func(name string, header []string, rows [][]string) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w := csv.NewWriter(f)
		if err := w.Write(header); err != nil {
			return err
		}
		if err := w.WriteAll(rows); err != nil {
			return err
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	fi := func(v int64) string { return strconv.FormatInt(v, 10) }

	// Figure 2 (and 3, derivable): the transfer sweep.
	rows2, err := c.Fig2()
	if err != nil {
		return nil, err
	}
	var fig2 [][]string
	for _, r := range rows2 {
		fig2 = append(fig2, []string{
			fi(r.Size), ff(r.PinnedH2D), ff(r.PageableH2D), ff(r.PredH2D),
			ff(r.PinnedD2H), ff(r.PageableD2H), ff(r.PredD2H),
		})
	}
	if err := write("fig2_transfer_sweep.csv",
		[]string{"size_bytes", "pinned_h2d_s", "pageable_h2d_s", "pred_h2d_s",
			"pinned_d2h_s", "pageable_d2h_s", "pred_d2h_s"}, fig2); err != nil {
		return nil, err
	}

	// Figure 4: model error per size.
	rows4, _, err := c.Fig4()
	if err != nil {
		return nil, err
	}
	var fig4 [][]string
	for _, r := range rows4 {
		fig4 = append(fig4, []string{fi(r.Size), ff(r.ErrH2D), ff(r.ErrD2H)})
	}
	if err := write("fig4_model_error.csv",
		[]string{"size_bytes", "err_h2d", "err_d2h"}, fig4); err != nil {
		return nil, err
	}

	// Table I.
	t1, err := c.Table1(ctx)
	if err != nil {
		return nil, err
	}
	var tab1 [][]string
	for _, r := range t1 {
		tab1 = append(tab1, []string{
			r.App, r.DataSize, ff(r.KernelTime), ff(r.TransferTime),
			ff(r.PercentTransfer), ff(r.InputMB), ff(r.OutputMB),
		})
	}
	if err := write("table1_measured.csv",
		[]string{"app", "data_size", "kernel_s", "transfer_s",
			"percent_transfer", "input_mb", "output_mb"}, tab1); err != nil {
		return nil, err
	}

	// Figure 5: per-transfer scatter.
	p5, _, err := c.Fig5(ctx)
	if err != nil {
		return nil, err
	}
	var fig5 [][]string
	for _, p := range p5 {
		fig5 = append(fig5, []string{p.App, p.DataSize, p.Transfer,
			ff(p.Predicted), ff(p.Measured)})
	}
	if err := write("fig5_transfer_scatter.csv",
		[]string{"app", "data_size", "transfer", "predicted_s", "measured_s"},
		fig5); err != nil {
		return nil, err
	}

	// Figure 6: error pairs.
	p6, err := c.Fig6(ctx)
	if err != nil {
		return nil, err
	}
	var fig6 [][]string
	for _, p := range p6 {
		fig6 = append(fig6, []string{p.App, p.DataSize, ff(p.KernelErr), ff(p.TransferErr)})
	}
	if err := write("fig6_error_pairs.csv",
		[]string{"app", "data_size", "kernel_err", "transfer_err"}, fig6); err != nil {
		return nil, err
	}

	// Figures 7/9/11: speedup by size, one file per app.
	for _, app := range []string{"CFD", "HotSpot", "SRAD"} {
		rows, err := c.SpeedupBySize(ctx, app)
		if err != nil {
			return nil, err
		}
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.DataSize, ff(r.Measured), ff(r.PredFull), ff(r.PredKernel)})
		}
		name := fmt.Sprintf("speedup_by_size_%s.csv", app)
		if err := write(name,
			[]string{"data_size", "measured", "pred_full", "pred_kernel_only"}, out); err != nil {
			return nil, err
		}
	}

	// Figures 8/10/12: iteration sweeps.
	for _, sw := range []struct {
		app, size, name string
		iters           []int
	}{
		{"CFD", "233K", "fig8_cfd_iters.csv", []int{1, 2, 4, 8, 16, 32, 64}},
		{"HotSpot", "1024 x 1024", "fig10_hotspot_iters.csv", []int{1, 2, 4, 8, 16, 32, 64, 128, 256}},
		{"SRAD", "4096 x 4096", "fig12_srad_iters.csv", []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}},
	} {
		sweep, err := c.IterationSweep(ctx, sw.app, sw.size, sw.iters)
		if err != nil {
			return nil, err
		}
		var out [][]string
		for _, r := range sweep.Rows {
			out = append(out, []string{strconv.Itoa(r.Iterations),
				ff(r.Measured), ff(r.PredFull), ff(r.PredKernel)})
		}
		out = append(out, []string{"inf", ff(sweep.LimitMeasured), ff(sweep.LimitPred), ff(sweep.LimitPred)})
		if err := write(sw.name,
			[]string{"iterations", "measured", "pred_full", "pred_kernel_only"}, out); err != nil {
			return nil, err
		}
	}

	// Table II.
	t2, err := c.Table2(ctx)
	if err != nil {
		return nil, err
	}
	var tab2 [][]string
	for _, r := range t2.Rows {
		tab2 = append(tab2, []string{r.App, r.DataSet,
			ff(r.KernelOnly), ff(r.TransferOnly), ff(r.Both)})
	}
	tab2 = append(tab2,
		[]string{"Average (data sets)", "", ff(t2.AvgDataSets.KernelOnly),
			ff(t2.AvgDataSets.TransferOnly), ff(t2.AvgDataSets.Both)},
		[]string{"Average (applications)", "", ff(t2.AvgApps.KernelOnly),
			ff(t2.AvgApps.TransferOnly), ff(t2.AvgApps.Both)})
	if err := write("table2_speedup_error.csv",
		[]string{"app", "data_set", "err_kernel_only", "err_transfer_only", "err_both"},
		tab2); err != nil {
		return nil, err
	}

	return written, nil
}
