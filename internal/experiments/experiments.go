// Package experiments reproduces every table and figure of the
// paper's evaluation (§III-C figures, §IV Table I, §V results).
//
// Each experiment is a function on a Context (one simulated machine
// plus one calibrated projector) returning structured rows; each row
// type has a Render* companion that prints the same rows/series the
// paper reports, as aligned text. The per-experiment index lives in
// DESIGN.md §4; the paper-vs-measured record lives in EXPERIMENTS.md.
// Every experiment that evaluates workloads takes a context first, so
// its per-kernel spans land on the caller's trace and cancellation
// stops it.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/pcie"
	"grophecy/internal/stats"
	"grophecy/internal/units"
	"grophecy/internal/xfermodel"
)

// DefaultSeed is the seed used by the CLI tools and benchmarks, so
// every published number is reproducible.
const DefaultSeed = 20130520 // IPDPS 2013, Boston

// Context bundles the simulated machine and the calibrated projector
// shared by all experiments.
type Context struct {
	M *core.Machine
	P *core.Projector

	// reports caches workload evaluations keyed by name+size, since
	// several experiments share them (Table I, Figs 5-7, Table II).
	reports map[string]core.Report
}

// NewContext builds a machine from the seed and calibrates the
// transfer model on it.
func NewContext(seed uint64) (*Context, error) {
	p, err := core.New(context.Background(), core.NewMachine(seed), core.Options{})
	if err != nil {
		return nil, err
	}
	return NewContextWithProjector(p), nil
}

// NewContextWithProjector wraps an already-calibrated projector, so
// callers can evaluate the paper's experiments through a non-default
// prediction backend (`paper -backend` builds the projector with
// core.New and passes it here).
func NewContextWithProjector(p *core.Projector) *Context {
	return &Context{M: p.Machine(), P: p, reports: make(map[string]core.Report)}
}

// Reports evaluates (and caches) every benchmark workload at its
// default iteration count. Each cache-missing workload is evaluated
// under ctx, so per-kernel wall-clock spans land on the caller's trace
// and cancellation stops the suite between workloads. The experiments
// built on Reports inherit both.
func (c *Context) Reports(ctx context.Context) ([]core.Report, error) {
	ws, err := bench.All()
	if err != nil {
		return nil, err
	}
	out := make([]core.Report, 0, len(ws))
	for _, w := range ws {
		key := w.Name + "/" + w.DataSize
		rep, ok := c.reports[key]
		if !ok {
			rep, err = c.P.Evaluate(ctx, w)
			if err != nil {
				return nil, err
			}
			c.reports[key] = rep
		}
		out = append(out, rep)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 2: transfer time for pinned and pageable memory, 1B..512MB,
// both directions, with model predictions overlaid.

// Fig2Row is one transfer size of the Figure 2 sweep.
type Fig2Row struct {
	Size        int64
	PinnedH2D   float64
	PageableH2D float64
	PinnedD2H   float64
	PageableD2H float64
	PredH2D     float64
	PredD2H     float64
}

// Fig2Runs is the measurement repetition of the sweep ("arithmetic
// mean of 10 separate transfers").
const Fig2Runs = 10

// Fig2 measures the full sweep on the bus and overlays the calibrated
// model's predictions.
func (c *Context) Fig2() ([]Fig2Row, error) {
	sizes, err := xfermodel.PowerOfTwoSizes(1, 512*units.MB)
	if err != nil {
		return nil, err
	}
	model := c.P.BusModel()
	rows := make([]Fig2Row, 0, len(sizes))
	for _, size := range sizes {
		row := Fig2Row{Size: size}
		for _, cell := range []struct {
			dst  *float64
			dir  pcie.Direction
			kind pcie.MemoryKind
		}{
			{&row.PinnedH2D, pcie.HostToDevice, pcie.Pinned},
			{&row.PageableH2D, pcie.HostToDevice, pcie.Pageable},
			{&row.PinnedD2H, pcie.DeviceToHost, pcie.Pinned},
			{&row.PageableD2H, pcie.DeviceToHost, pcie.Pageable},
		} {
			t, err := c.M.Bus.MeasureMean(cell.dir, cell.kind, size, Fig2Runs)
			if err != nil {
				return nil, err
			}
			*cell.dst = t
		}
		if row.PredH2D, err = model.Predict(pcie.HostToDevice, size); err != nil {
			return nil, err
		}
		if row.PredD2H, err = model.Predict(pcie.DeviceToHost, size); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig2 prints the sweep as an aligned table.
func RenderFig2(rows []Fig2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: transfer time, pinned vs pageable (mean of %d runs)\n", Fig2Runs)
	fmt.Fprintf(&b, "%10s %12s %12s %12s | %12s %12s %12s\n",
		"size", "pin C2G", "page C2G", "pred C2G", "pin G2C", "page G2C", "pred G2C")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10s %12s %12s %12s | %12s %12s %12s\n",
			units.FormatBytes(r.Size),
			units.FormatSeconds(r.PinnedH2D), units.FormatSeconds(r.PageableH2D),
			units.FormatSeconds(r.PredH2D),
			units.FormatSeconds(r.PinnedD2H), units.FormatSeconds(r.PageableD2H),
			units.FormatSeconds(r.PredD2H))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3: speedup of pinned over pageable transfers.

// Fig3Row is one transfer size of the pinned-speedup series.
type Fig3Row struct {
	Size       int64
	SpeedupH2D float64 // pageable time / pinned time
	SpeedupD2H float64
}

// Fig3 derives the pinned-vs-pageable speedups from a fresh sweep.
func (c *Context) Fig3() ([]Fig3Row, error) {
	rows, err := c.Fig2()
	if err != nil {
		return nil, err
	}
	out := make([]Fig3Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Fig3Row{
			Size:       r.Size,
			SpeedupH2D: r.PageableH2D / r.PinnedH2D,
			SpeedupD2H: r.PageableD2H / r.PinnedD2H,
		})
	}
	return out, nil
}

// RenderFig3 prints the speedup series.
func RenderFig3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: speedup of pinned over pageable transfers\n")
	fmt.Fprintf(&b, "%10s %10s %10s\n", "size", "C2G", "G2C")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10s %9.2fx %9.2fx\n",
			units.FormatBytes(r.Size), r.SpeedupH2D, r.SpeedupD2H)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 4: error magnitude of the transfer model per size and
// direction, plus the summary statistics quoted in §V-A.

// Fig4Row is one validation point.
type Fig4Row struct {
	Size   int64
	ErrH2D float64
	ErrD2H float64
}

// Fig4Summary aggregates a direction's errors.
type Fig4Summary struct {
	Direction pcie.Direction
	MeanErr   float64
	MaxErr    float64
}

// Fig4 validates the model over the power-of-two sweep.
func (c *Context) Fig4() ([]Fig4Row, [pcie.NumDirections]Fig4Summary, error) {
	sizes, err := xfermodel.PowerOfTwoSizes(1, 512*units.MB)
	if err != nil {
		return nil, [pcie.NumDirections]Fig4Summary{}, err
	}
	points, err := xfermodel.Validate(c.M.Bus, c.P.BusModel(), sizes, Fig2Runs)
	if err != nil {
		return nil, [pcie.NumDirections]Fig4Summary{}, err
	}
	byDirSize := make(map[pcie.Direction]map[int64]float64)
	for d := 0; d < pcie.NumDirections; d++ {
		byDirSize[pcie.Direction(d)] = make(map[int64]float64)
	}
	for _, pt := range points {
		byDirSize[pt.Dir][pt.Size] = pt.ErrMag
	}
	rows := make([]Fig4Row, 0, len(sizes))
	for _, size := range sizes {
		rows = append(rows, Fig4Row{
			Size:   size,
			ErrH2D: byDirSize[pcie.HostToDevice][size],
			ErrD2H: byDirSize[pcie.DeviceToHost][size],
		})
	}
	sums := xfermodel.SummarizeValidation(points)
	var out [pcie.NumDirections]Fig4Summary
	for d, s := range sums {
		out[d] = Fig4Summary{Direction: s.Dir, MeanErr: s.MeanErr, MaxErr: s.MaxErr}
	}
	return rows, out, nil
}

// RenderFig4 prints the error series and the summary line.
func RenderFig4(rows []Fig4Row, sums [pcie.NumDirections]Fig4Summary) string {
	var b strings.Builder
	b.WriteString("Figure 4: transfer model error magnitude by size\n")
	fmt.Fprintf(&b, "%10s %10s %10s\n", "size", "C2G err", "G2C err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10s %9.1f%% %9.1f%%\n",
			units.FormatBytes(r.Size), 100*r.ErrH2D, 100*r.ErrD2H)
	}
	for _, s := range sums {
		fmt.Fprintf(&b, "%v: mean error %.1f%%, max error %.1f%%\n",
			s.Direction, 100*s.MeanErr, 100*s.MaxErr)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table I: measured kernel and transfer times, percent transfer, and
// transfer sizes for each application and data size.

// Table1Row is one application/data-size line of Table I.
type Table1Row struct {
	App             string
	DataSize        string
	KernelTime      float64 // seconds, measured
	TransferTime    float64 // seconds, measured
	PercentTransfer float64 // fraction of total GPU time
	InputMB         float64
	OutputMB        float64
}

// Table1 evaluates every workload and extracts the measured columns.
func (c *Context) Table1(ctx context.Context) ([]Table1Row, error) {
	reports, err := c.Reports(ctx)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(reports))
	for _, r := range reports {
		rows = append(rows, Table1Row{
			App:             r.Name,
			DataSize:        r.DataSize,
			KernelTime:      r.MeasKernelTime,
			TransferTime:    r.MeasTransferTime,
			PercentTransfer: r.PercentTransfer(),
			InputMB:         float64(r.Plan.UploadBytes()) / 1e6,
			OutputMB:        float64(r.Plan.DownloadBytes()) / 1e6,
		})
	}
	return rows, nil
}

// RenderTable1 prints the Table I reproduction.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table I: measured kernel/transfer times and transfer sizes\n")
	fmt.Fprintf(&b, "%-10s %-20s %10s %10s %9s %9s %9s\n",
		"App", "Data Size", "Kernel", "Transfer", "%Xfer", "In(MB)", "Out(MB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-20s %10s %10s %8.0f%% %9.1f %9.1f\n",
			r.App, r.DataSize,
			units.FormatSeconds(r.KernelTime), units.FormatSeconds(r.TransferTime),
			100*r.PercentTransfer, r.InputMB, r.OutputMB)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 5: predicted vs measured time of every individual transfer.

// Fig5Point is one transfer of one workload.
type Fig5Point struct {
	App       string
	DataSize  string
	Transfer  string
	Predicted float64
	Measured  float64
}

// Fig5 collects every per-transfer comparison, plus the overall mean
// error the paper quotes (7.6% across all application transfers).
func (c *Context) Fig5(ctx context.Context) ([]Fig5Point, float64, error) {
	reports, err := c.Reports(ctx)
	if err != nil {
		return nil, 0, err
	}
	var points []Fig5Point
	var errs []float64
	for _, r := range reports {
		for _, tr := range r.Transfers {
			points = append(points, Fig5Point{
				App:       r.Name,
				DataSize:  r.DataSize,
				Transfer:  tr.Transfer.String(),
				Predicted: tr.Predicted,
				Measured:  tr.Measured,
			})
			errs = append(errs, stats.ErrorMagnitude(tr.Predicted, tr.Measured))
		}
	}
	return points, stats.Mean(errs), nil
}

// RenderFig5 prints the scatter as a table.
func RenderFig5(points []Fig5Point, meanErr float64) string {
	var b strings.Builder
	b.WriteString("Figure 5: predicted vs measured time per transfer\n")
	fmt.Fprintf(&b, "%-10s %-20s %-44s %12s %12s\n",
		"App", "Data Size", "Transfer", "Predicted", "Measured")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-20s %-44s %12s %12s\n",
			p.App, p.DataSize, p.Transfer,
			units.FormatSeconds(p.Predicted), units.FormatSeconds(p.Measured))
	}
	fmt.Fprintf(&b, "overall mean transfer prediction error: %.1f%%\n", 100*meanErr)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 6: transfer prediction error vs kernel prediction error.

// Fig6Point is one workload's error pair.
type Fig6Point struct {
	App         string
	DataSize    string
	KernelErr   float64
	TransferErr float64
}

// Fig6 aggregates per-workload error magnitudes.
func (c *Context) Fig6(ctx context.Context) ([]Fig6Point, error) {
	reports, err := c.Reports(ctx)
	if err != nil {
		return nil, err
	}
	points := make([]Fig6Point, 0, len(reports))
	for _, r := range reports {
		points = append(points, Fig6Point{
			App:         r.Name,
			DataSize:    r.DataSize,
			KernelErr:   r.KernelErr(),
			TransferErr: r.TransferErr(),
		})
	}
	return points, nil
}

// RenderFig6 prints the error scatter.
func RenderFig6(points []Fig6Point) string {
	var b strings.Builder
	b.WriteString("Figure 6: transfer error vs kernel error per workload\n")
	fmt.Fprintf(&b, "%-10s %-20s %12s %12s\n", "App", "Data Size", "Kernel err", "Xfer err")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-20s %11.1f%% %11.1f%%\n",
			p.App, p.DataSize, 100*p.KernelErr, 100*p.TransferErr)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 7, 9, 11: speedup vs data size per application; and the
// Stassuij paragraph (§V-B4).

// SpeedupRow is one data size of a speedup-vs-size figure.
type SpeedupRow struct {
	App        string
	DataSize   string
	Measured   float64
	PredFull   float64 // with data transfer (GROPHECY++)
	PredKernel float64 // without data transfer (plain GROPHECY)
	ErrFull    float64
	ErrKernel  float64
}

func speedupRow(r core.Report) SpeedupRow {
	return SpeedupRow{
		App:        r.Name,
		DataSize:   r.DataSize,
		Measured:   r.MeasuredSpeedup(),
		PredFull:   r.SpeedupFull(),
		PredKernel: r.SpeedupKernelOnly(),
		ErrFull:    r.ErrFull(),
		ErrKernel:  r.ErrKernelOnly(),
	}
}

// SpeedupBySize produces the Figure 7/9/11 series for one application
// name ("CFD", "HotSpot", "SRAD") or the single Stassuij point.
func (c *Context) SpeedupBySize(ctx context.Context, app string) ([]SpeedupRow, error) {
	reports, err := c.Reports(ctx)
	if err != nil {
		return nil, err
	}
	var rows []SpeedupRow
	for _, r := range reports {
		if r.Name == app {
			rows = append(rows, speedupRow(r))
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: unknown application %q", app)
	}
	return rows, nil
}

// RenderSpeedupBySize prints a speedup-vs-size figure.
func RenderSpeedupBySize(title string, rows []SpeedupRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: measured and predicted GPU speedup\n", title)
	fmt.Fprintf(&b, "%-20s %10s %12s %14s %10s %12s\n",
		"Data Size", "Measured", "Pred(K+T)", "Pred(K only)", "err(K+T)", "err(K only)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %9.2fx %11.2fx %13.2fx %9.0f%% %11.0f%%\n",
			r.DataSize, r.Measured, r.PredFull, r.PredKernel,
			100*r.ErrFull, 100*r.ErrKernel)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 8, 10, 12: speedup vs iteration count.

// IterRow is one iteration count of an iteration-sweep figure.
type IterRow struct {
	Iterations int
	Measured   float64
	PredFull   float64
	PredKernel float64
}

// IterSweep evaluates one workload across iteration counts and
// appends the infinite-iteration limits.
type IterSweep struct {
	App           string
	DataSize      string
	Rows          []IterRow
	LimitMeasured float64
	LimitPred     float64
}

// IterationSweep runs the Figure 8/10/12 protocol: the named workload
// across the given iteration counts. Every per-iteration evaluation
// runs under ctx, so its kernel spans attach to the caller's
// wall-clock trace.
func (c *Context) IterationSweep(ctx context.Context, app, size string, iterations []int) (IterSweep, error) {
	w, err := findWorkload(app, size)
	if err != nil {
		return IterSweep{}, err
	}
	reports, err := c.P.EvaluateIterations(ctx, w, iterations)
	if err != nil {
		return IterSweep{}, err
	}
	sweep := IterSweep{App: app, DataSize: size}
	for _, r := range reports {
		sweep.Rows = append(sweep.Rows, IterRow{
			Iterations: r.Iterations,
			Measured:   r.MeasuredSpeedup(),
			PredFull:   r.SpeedupFull(),
			PredKernel: r.SpeedupKernelOnly(),
		})
	}
	last := reports[len(reports)-1]
	sweep.LimitMeasured, sweep.LimitPred = last.LimitSpeedups()
	return sweep, nil
}

func findWorkload(app, size string) (core.Workload, error) {
	ws, err := bench.All()
	if err != nil {
		return core.Workload{}, err
	}
	for _, w := range ws {
		if w.Name == app && w.DataSize == size {
			return w, nil
		}
	}
	return core.Workload{}, fmt.Errorf("experiments: no workload %q %q", app, size)
}

// RenderIterSweep prints an iteration-sweep figure.
func RenderIterSweep(title string, s IterSweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s %s speedup vs iteration count\n", title, s.App, s.DataSize)
	fmt.Fprintf(&b, "%12s %10s %12s %14s\n", "iterations", "Measured", "Pred(K+T)", "Pred(K only)")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%12d %9.2fx %11.2fx %13.2fx\n",
			r.Iterations, r.Measured, r.PredFull, r.PredKernel)
	}
	fmt.Fprintf(&b, "%12s %9.2fx %11.2fx %13.2fx (both predictions converge)\n",
		"infinity", s.LimitMeasured, s.LimitPred, s.LimitPred)
	fmt.Fprintf(&b, "limit prediction error: %.1f%%\n",
		100*stats.ErrorMagnitude(s.LimitPred, s.LimitMeasured))
	return b.String()
}

// ---------------------------------------------------------------------------
// Table II: error magnitude of the predicted GPU speedup.

// Table2Row is one application/data-set line of Table II.
type Table2Row struct {
	App          string
	DataSet      string
	KernelOnly   float64
	TransferOnly float64
	Both         float64
}

// Table2Result is the whole table, with the two averaging conventions
// the paper reports.
type Table2Result struct {
	Rows []Table2Row
	// PerApp averages each multi-data-set application's rows.
	PerApp []Table2Row
	// AvgDataSets weights all data sets equally; AvgApps weights all
	// applications equally.
	AvgDataSets Table2Row
	AvgApps     Table2Row
}

// Table2 computes the speedup-error table over all workloads.
func (c *Context) Table2(ctx context.Context) (Table2Result, error) {
	reports, err := c.Reports(ctx)
	if err != nil {
		return Table2Result{}, err
	}
	var res Table2Result
	perApp := make(map[string][]Table2Row)
	var appOrder []string
	for _, r := range reports {
		row := Table2Row{
			App:          r.Name,
			DataSet:      r.DataSize,
			KernelOnly:   r.ErrKernelOnly(),
			TransferOnly: r.ErrTransferOnly(),
			Both:         r.ErrFull(),
		}
		res.Rows = append(res.Rows, row)
		if _, seen := perApp[r.Name]; !seen {
			appOrder = append(appOrder, r.Name)
		}
		perApp[r.Name] = append(perApp[r.Name], row)
	}

	mean := func(rows []Table2Row) Table2Row {
		var k, t, bo float64
		for _, r := range rows {
			k += r.KernelOnly
			t += r.TransferOnly
			bo += r.Both
		}
		n := float64(len(rows))
		return Table2Row{KernelOnly: k / n, TransferOnly: t / n, Both: bo / n}
	}

	for _, app := range appOrder {
		avg := mean(perApp[app])
		avg.App = app
		avg.DataSet = "Average"
		res.PerApp = append(res.PerApp, avg)
	}
	res.AvgDataSets = mean(res.Rows)
	res.AvgDataSets.App = "Average (data sets)"
	res.AvgApps = mean(res.PerApp)
	res.AvgApps.App = "Average (applications)"
	return res, nil
}

// RenderTable2 prints the Table II reproduction.
func RenderTable2(res Table2Result) string {
	var b strings.Builder
	b.WriteString("Table II: error magnitude of the predicted GPU speedup\n")
	fmt.Fprintf(&b, "%-22s %-20s %12s %14s %16s\n",
		"App", "Data Set", "Kernel Only", "Transfer Only", "Kernel+Transfer")
	line := func(r Table2Row) {
		fmt.Fprintf(&b, "%-22s %-20s %11.0f%% %13.0f%% %15.0f%%\n",
			r.App, r.DataSet, 100*r.KernelOnly, 100*r.TransferOnly, 100*r.Both)
	}
	byApp := make(map[string][]Table2Row)
	var order []string
	for _, r := range res.Rows {
		if _, seen := byApp[r.App]; !seen {
			order = append(order, r.App)
		}
		byApp[r.App] = append(byApp[r.App], r)
	}
	perApp := make(map[string]Table2Row)
	for _, r := range res.PerApp {
		perApp[r.App] = r
	}
	for _, app := range order {
		rows := byApp[app]
		for _, r := range rows {
			line(r)
		}
		if len(rows) > 1 {
			line(perApp[app])
		}
	}
	line(res.AvgDataSets)
	line(res.AvgApps)
	return b.String()
}

// ---------------------------------------------------------------------------
// §V-B4: the Stassuij flip — kernel-only predicts a speedup, reality
// is a slowdown, GROPHECY++ predicts the slowdown.

// StassuijResult carries the three §V-B4 numbers.
type StassuijResult struct {
	PredKernelOnly float64
	Measured       float64
	PredFull       float64
	ErrFull        float64
}

// Stassuij evaluates the flip experiment.
func (c *Context) Stassuij(ctx context.Context) (StassuijResult, error) {
	reports, err := c.Reports(ctx)
	if err != nil {
		return StassuijResult{}, err
	}
	for _, r := range reports {
		if r.Name == "Stassuij" {
			return StassuijResult{
				PredKernelOnly: r.SpeedupKernelOnly(),
				Measured:       r.MeasuredSpeedup(),
				PredFull:       r.SpeedupFull(),
				ErrFull:        r.ErrFull(),
			}, nil
		}
	}
	return StassuijResult{}, fmt.Errorf("experiments: Stassuij workload missing")
}

// RenderStassuij prints the §V-B4 paragraph numbers.
func RenderStassuij(r StassuijResult) string {
	var b strings.Builder
	b.WriteString("Stassuij (paper §V-B4): speedup-to-slowdown flip\n")
	fmt.Fprintf(&b, "kernel-only predicted speedup: %.2fx (predicts a GPU win)\n", r.PredKernelOnly)
	fmt.Fprintf(&b, "measured speedup:              %.2fx (actually a slowdown)\n", r.Measured)
	fmt.Fprintf(&b, "GROPHECY++ predicted speedup:  %.2fx (error %.1f%%)\n", r.PredFull, 100*r.ErrFull)
	return b.String()
}
