// Command grophecy runs the GROPHECY++ projection pipeline on one of
// the built-in benchmark workloads and prints the full report: the
// data transfer plan, the transformation chosen for each kernel,
// predicted vs measured kernel and transfer times, and the projected
// GPU speedups with and without data transfer modeling.
//
// Usage:
//
//	grophecy -list
//	grophecy -app HotSpot -size "1024 x 1024"
//	grophecy -app CFD -size 233K -iters 8
//	grophecy -app SRAD -size "2048 x 2048" -target c2050-pcie3
//	grophecy -app HotSpot -size "1024 x 1024" -matrix
//	grophecy -app HotSpot -size "1024 x 1024" -faults "transient=0.02,outlier=0.01:8"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"grophecy/internal/backend"
	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/fault"
	"grophecy/internal/gpu"
	"grophecy/internal/metrics"
	"grophecy/internal/pcie"
	"grophecy/internal/perfmodel"
	"grophecy/internal/report"
	"grophecy/internal/sklang"
	"grophecy/internal/sweep"
	"grophecy/internal/target"
	"grophecy/internal/timeline"
	"grophecy/internal/trace"
	"grophecy/internal/units"
)

func main() {
	var (
		app      = flag.String("app", "", "application: CFD, HotSpot, SRAD, Stassuij")
		skeleton = flag.String("skeleton", "", "path to a .sk skeleton file to project instead of a built-in workload")
		size     = flag.String("size", "", "data size label (see -list)")
		iters    = flag.Int("iters", 1, "iteration count")
		seed     = flag.Uint64("seed", experiments.DefaultSeed, "simulated machine seed")
		tgtName  = flag.String("target", "", "hardware target registry name (see -list; default: "+target.DefaultName+")")
		gpuName  = flag.String("gpu", "", "GPU preset name on the paper's CPU and bus (mutually exclusive with -target)")
		matrix   = flag.Bool("matrix", false, "project the workload on every registered target and print a comparison table")
		bkName   = flag.String("backend", "", "prediction backend (see GET /backends or -list; default: "+backend.DefaultName+")")
		bkMatrix = flag.Bool("backends", false, "with -matrix: project every built-in workload through every backend on the resolved target and print the disagreement table")
		list     = flag.Bool("list", false, "list available workloads, GPU presets, and hardware targets")
		export   = flag.String("export", "", "write the selected workload as a skeleton file to this path and exit")
		showTime = flag.Bool("timeline", false, "render the measured execution timeline as a Gantt chart")
		asJSON   = flag.Bool("json", false, "emit the report as JSON instead of text")
		verbose  = flag.Bool("v", false, "print per-kernel model and simulator diagnostics")
		faults   = flag.String("faults", "", `fault-injection plan, e.g. "transient=0.02,outlier=0.01:8,slow=40:5:6,drift=0.001" (see docs/ROBUSTNESS.md); empty or "none" disables injection`)
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path (view in chrome://tracing or ui.perfetto.dev)")
		showSpan = flag.Bool("spans", false, "print the simulated-time span tree after the report")
		showMet  = flag.Bool("metrics", false, "dump pipeline metrics (Prometheus text format) after the report")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tracer *trace.Tracer
	if *traceOut != "" || *showSpan {
		tracer = trace.New("grophecy")
		ctx = trace.With(ctx, tracer)
	}

	plan, err := fault.ParsePlan(*faults)
	if err != nil {
		fatal(err)
	}

	if *list {
		printList()
		return
	}

	backendName := backend.DefaultName
	if *bkName != "" {
		b, err := backend.Get(*bkName)
		if err != nil {
			fatal(err)
		}
		backendName = b.Name()
	}
	if *matrix && !plan.Empty() {
		fatal(fmt.Errorf("-matrix and -faults are mutually exclusive (the comparison sweeps clean pipelines)"))
	}
	if *bkMatrix {
		if !*matrix {
			fatal(fmt.Errorf("-backends requires -matrix"))
		}
		tgt, err := target.Resolve(*tgtName, *gpuName)
		if err != nil {
			fatal(err)
		}
		out, err := runBackendMatrix(ctx, tgt, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		flushObservability(tracer, *traceOut, *showSpan, *showMet)
		return
	}

	if *app == "" && *skeleton == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *app != "" && *skeleton != "" {
		fatal(fmt.Errorf("-app and -skeleton are mutually exclusive"))
	}

	var w core.Workload
	if *skeleton != "" {
		w, err = sklang.ParseFile(*skeleton)
		if err != nil && errors.Is(err, sklang.ErrNotWorkload) {
			// A multi-phase program file: evaluate it with
			// residency-aware planning and exit.
			runProgramFile(ctx, *skeleton, *seed, backendName, plan)
			flushObservability(tracer, *traceOut, *showSpan, *showMet)
			return
		}
	} else {
		w, err = findWorkload(*app, *size)
	}
	if err != nil {
		fatal(err)
	}
	if *iters < 1 {
		fatal(fmt.Errorf("iteration count %d below 1", *iters))
	}
	w = w.WithIterations(*iters)

	if *export != "" {
		src, err := sklang.Format(w)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*export, []byte(src), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s %s to %s\n", w.Name, w.DataSize, *export)
		return
	}

	tgt, err := target.Resolve(*tgtName, *gpuName)
	if err != nil {
		fatal(err)
	}

	if *matrix {
		out, err := runMatrix(ctx, w, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		flushObservability(tracer, *traceOut, *showSpan, *showMet)
		return
	}

	machine := tgt.Machine(*seed)
	projector, err := buildProjector(ctx, machine, core.Options{Backend: backendName, Memory: tgt.Memory}, plan)
	if err != nil {
		fatal(err)
	}

	if !*asJSON {
		fmt.Printf("GROPHECY++ projection on %s + %s\n\n", machine.CPUArch.Name, machine.GPUArch.Name)
		if projector.Backend() != backend.DefaultName {
			fmt.Printf("prediction backend: %s\n", projector.Backend())
		}
		model := projector.BusModel()
		fmt.Printf("PCIe model (calibrated from %d transfers, %.1fs of bus time):\n",
			model.CalibrationTransfers, model.CalibrationCost)
		fmt.Printf("  CPU-to-GPU: %s\n", model.Dir[pcie.HostToDevice])
		fmt.Printf("  GPU-to-CPU: %s\n\n", model.Dir[pcie.DeviceToHost])
	}

	rep, err := projector.Evaluate(ctx, w)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		data, err := report.JSON(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		flushObservability(tracer, *traceOut, *showSpan, *showMet)
		return
	}
	fmt.Print(report.Text(rep))
	printResilience(machine, rep.Degradations)
	if *verbose {
		printDiagnostics(machine, rep)
	}

	if *showTime {
		chart, err := timeline.Chart(rep, 64)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(chart)
	}
	flushObservability(tracer, *traceOut, *showSpan, *showMet)
}

// flushObservability closes the tracer, verifies the trace tree is
// well-formed, and emits whatever the observability flags asked for:
// a Chrome trace_event JSON file, the span tree, the metrics dump.
func flushObservability(tracer *trace.Tracer, traceOut string, showSpans, showMetrics bool) {
	tracer.Close()
	if tracer != nil {
		if err := tracer.Check(); err != nil {
			fatal(err)
		}
	}
	if traceOut != "" {
		data, err := tracer.ChromeJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "grophecy: wrote trace (%s simulated) to %s\n",
			units.FormatSeconds(tracer.Root().Interval().Duration), traceOut)
	}
	if showSpans {
		fmt.Println()
		fmt.Print(tracer.Tree())
	}
	if showMetrics {
		fmt.Println()
		fmt.Print(metrics.Default.Dump())
	}
	// The trace's life ends here: recycle its spans.
	tracer.Release()
}

// printDiagnostics shows, per kernel, what the analytical model and
// the simulator each saw: occupancy, the limiting resource, warp
// parallelism, waves, and effective transactions.
func printDiagnostics(machine *core.Machine, r core.Report) {
	fmt.Println("\nper-kernel diagnostics (model vs simulator):")
	for _, k := range r.Kernels {
		proj, err := perfmodel.Project(machine.GPUArch, k.Variant.Ch)
		if err != nil {
			fatal(err)
		}
		sim, err := machine.GPU.Simulate(k.Variant.Ch)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %s (%s):\n", k.Kernel, k.Variant.Name)
		fmt.Printf("    model: %d blocks/SM (%s-limited), %d warps, MWP %.1f, CWP %.1f, %s-bound\n",
			proj.Occ.BlocksPerSM, proj.Occ.Limiter, proj.Occ.WarpsPerSM,
			proj.MWP, proj.CWP, proj.Bound)
		bw := ""
		if sim.BandwidthLimited {
			bw = ", DRAM-bandwidth-limited"
		}
		fmt.Printf("    sim:   %d full waves + %d tail blocks, %.1f txns/request%s\n",
			sim.FullWaves, sim.TailBlocks, sim.EffectiveTransactions, bw)
		fmt.Printf("    times: model %s, sim %s (gap %.1f%%)\n",
			units.FormatSeconds(k.Predicted), units.FormatSeconds(k.Measured),
			100*(k.Measured-k.Predicted)/k.Predicted)
	}
}

// buildProjector arms the machine with plan, unless it is empty, and
// calibrates a projector on it.
func buildProjector(ctx context.Context, machine *core.Machine, opts core.Options, plan fault.Plan) (*core.Projector, error) {
	if !plan.Empty() {
		machine.ArmFaults(plan)
	}
	return core.New(ctx, machine, opts)
}

// printResilience reports what the fault layer of an armed machine
// injected and what the resilient pipeline had to do about it.
func printResilience(machine *core.Machine, degradations []string) {
	if machine.Faults == nil {
		return
	}
	fmt.Println("\nresilience:")
	fmt.Printf("  fault plan:  %s\n", machine.Faults.Plan)
	fmt.Printf("  injected:    %s\n", machine.Faults.Stats())
	if len(degradations) == 0 {
		fmt.Println("  degradations: none (all measurements recovered)")
		return
	}
	fmt.Printf("  degradations (%d):\n", len(degradations))
	for _, d := range degradations {
		fmt.Printf("    - %s\n", d)
	}
}

// runProgramFile evaluates a multi-phase skeleton file.
func runProgramFile(ctx context.Context, path string, seed uint64, backendName string, plan fault.Plan) {
	pw, err := sklang.ParseProgramFile(path)
	if err != nil {
		fatal(err)
	}
	machine := core.NewMachine(seed)
	projector, err := buildProjector(ctx, machine, core.Options{Backend: backendName}, plan)
	if err != nil {
		fatal(err)
	}
	rep, err := projector.EvaluateProgram(ctx, pw.Prog, pw.CPU)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("GROPHECY++ program projection: %s %s (%d phases)\n\n",
		pw.Name, pw.DataSize, len(rep.Phases))
	fmt.Printf("%-8s %12s %12s %10s\n", "phase", "kernels", "transfers", "moved")
	for i, ph := range rep.Phases {
		var bytes int64
		for _, tr := range ph.Transfers {
			bytes += tr.Transfer.Bytes()
		}
		fmt.Printf("%-8d %12s %12s %10s\n", i+1,
			units.FormatSeconds(ph.MeasKernelTime),
			units.FormatSeconds(ph.MeasTransferTime),
			units.FormatBytes(bytes))
	}
	pk, mk, px, mx := rep.Totals()
	fmt.Printf("\ntotals: kernels %s (pred %s), transfers %s (pred %s)\n",
		units.FormatSeconds(mk), units.FormatSeconds(pk),
		units.FormatSeconds(mx), units.FormatSeconds(px))
	fmt.Printf("residency planning saves %.0f%% of naive per-phase transfer time\n",
		100*rep.ResidencySavings())
	fmt.Printf("projected speedup %.2fx, measured %.2fx\n",
		rep.SpeedupFull(), rep.MeasuredSpeedup())
	printResilience(machine, rep.Degradations)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range bench.MustAll() {
		fmt.Printf("  -app %-9s -size %q\n", w.Name, w.DataSize)
	}
	fmt.Println("\ngpu presets:")
	for _, a := range gpu.Presets() {
		fmt.Printf("  %q\n", a.Name)
	}
	fmt.Println("\nprediction backends:")
	for _, b := range backend.Default.List() {
		name := b.Name()
		if name == backend.DefaultName {
			name += " (default)"
		}
		fmt.Printf("  -backend %-20s %s\n", name, b.Description())
	}
	fmt.Println("\nhardware targets:")
	for _, t := range target.Default.List() {
		name := t.Name
		if name == target.DefaultName {
			name += " (default)"
		}
		fmt.Printf("  -target %-24s %s\n", name, t.String())
	}
}

func findWorkload(app, size string) (core.Workload, error) {
	var match *core.Workload
	for _, w := range bench.MustAll() {
		if w.Name != app {
			continue
		}
		if size == "" || w.DataSize == size {
			if match != nil {
				return core.Workload{}, fmt.Errorf(
					"application %q has several data sizes; pick one with -size (see -list)", app)
			}
			cp := w
			match = &cp
		}
	}
	if match == nil {
		return core.Workload{}, fmt.Errorf("no workload %q %q (see -list)", app, size)
	}
	return *match, nil
}

// runMatrix projects the workload on every registered target in
// parallel — each sweep worker owns its own simulated machine — and
// renders the cross-target comparison table.
func runMatrix(ctx context.Context, w core.Workload, seed uint64) (string, error) {
	targets := target.Default.List()
	rows, err := sweep.Run(ctx, len(targets), 0, func(i int) (report.MatrixRow, error) {
		tgt := targets[i]
		p, err := core.New(ctx, tgt.Machine(seed), core.Options{Memory: tgt.Memory})
		if err != nil {
			return report.MatrixRow{}, fmt.Errorf("target %s: %w", tgt.Name, err)
		}
		rep, err := p.Evaluate(ctx, w)
		if err != nil {
			return report.MatrixRow{}, fmt.Errorf("target %s: %w", tgt.Name, err)
		}
		return report.MatrixRow{Target: tgt.Name, Hardware: tgt.String(), Report: rep}, nil
	})
	if err != nil {
		return "", err
	}
	return report.Matrix(w.Name, rows), nil
}

// runBackendMatrix projects every built-in workload through every
// registered backend on one resolved target — each backend calibrates
// once on its own machine, in parallel — and renders the disagreement
// table.
func runBackendMatrix(ctx context.Context, tgt target.Target, seed uint64) (string, error) {
	names := backend.Default.Names()
	wls := bench.MustAll()
	cols, err := sweep.Run(ctx, len(names), 0, func(i int) ([]core.Report, error) {
		p, err := core.New(ctx, tgt.Machine(seed), core.Options{Backend: names[i], Memory: tgt.Memory})
		if err != nil {
			return nil, fmt.Errorf("backend %s: %w", names[i], err)
		}
		reps := make([]core.Report, 0, len(wls))
		for _, w := range wls {
			rep, err := p.Evaluate(ctx, w)
			if err != nil {
				return nil, fmt.Errorf("backend %s, workload %s %s: %w", names[i], w.Name, w.DataSize, err)
			}
			reps = append(reps, rep)
		}
		return reps, nil
	})
	if err != nil {
		return "", err
	}
	rows := make([]report.BackendRow, len(wls))
	for wi, w := range wls {
		rows[wi] = report.BackendRow{Workload: w.Name, DataSize: w.DataSize}
		for bi, name := range names {
			rows[wi].Cells = append(rows[wi].Cells, report.BackendCell{
				Backend: name, Report: cols[bi][wi],
			})
		}
	}
	return report.BackendMatrix(tgt.Name, tgt.String(), names, rows), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "grophecy:", err)
	os.Exit(1)
}
