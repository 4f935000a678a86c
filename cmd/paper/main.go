// Command paper regenerates every table and figure of the paper's
// evaluation from the simulated Argonne machine.
//
// Usage:
//
//	paper -all              # everything, in paper order
//	paper -table 1          # Table I or II
//	paper -fig 7            # Figures 2-12
//	paper -stassuij         # the §V-B4 flip experiment
//	paper -seed 123 -all    # a different simulated machine
//	paper -target c2050-pcie3 -table 2   # the evaluation on other hardware
//	paper -all -trace paper.json -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"grophecy/internal/backend"
	"grophecy/internal/core"
	"grophecy/internal/experiments"
	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/target"
	"grophecy/internal/trace"
)

func main() {
	var (
		table    = flag.Int("table", 0, "render Table N (1 or 2)")
		fig      = flag.Int("fig", 0, "render Figure N (2-12)")
		stassuij = flag.Bool("stassuij", false, "render the Stassuij flip experiment (§V-B4)")
		future   = flag.Bool("future", false, "render the future-work analyses (§VII: memory planning, batching)")
		robust   = flag.Int("robustness", 0, "re-run Table II on N independent machine instances")
		decision = flag.Bool("decisionmap", false, "render the port-verdict decision map over workload space")
		busgen   = flag.Bool("busgen", false, "render the PCIe-generation study (same node, faster bus)")
		pinned   = flag.Bool("pinned", false, "render the pinned-vs-pageable assumption study (§III-C)")
		charts   = flag.Bool("charts", false, "also draw ASCII charts for the figure-shaped experiments")
		csvDir   = flag.String("csv", "", "also write every table/figure as CSV into this directory")
		all      = flag.Bool("all", false, "render every table and figure")
		seed     = flag.Uint64("seed", experiments.DefaultSeed, "simulated machine seed")
		tgtName  = flag.String("target", "", "hardware target registry name (default: the paper's node, "+target.DefaultName+")")
		bkName   = flag.String("backend", "", "prediction backend name (default: "+backend.DefaultName+")")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path (experiment-level spans)")
		showMet  = flag.Bool("metrics", false, "dump pipeline metrics (Prometheus text format) after the output")
		logFmt   = flag.String("log-format", "text", obs.LogFormatUsage)
		logLevel = flag.String("log-level", "warn", obs.LogLevelUsage)
	)
	flag.Parse()

	if !*all && *table == 0 && *fig == 0 && !*stassuij && !*future &&
		*robust == 0 && !*decision && !*busgen && !*pinned && *csvDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Each table or figure runs under a structural span, and the span's
	// context flows into the experiment (the *Ctx variants), so
	// per-kernel spans nest under their section (see
	// docs/OBSERVABILITY.md).
	tctx, err := obs.Setup(context.Background(), os.Stderr, *logFmt, *logLevel)
	if err != nil {
		fatal(err)
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New("paper")
		tctx = trace.With(tctx, tracer)
	}

	tgt, err := target.Lookup(*tgtName)
	if err != nil {
		fatal(err)
	}
	backendName := backend.DefaultName
	if *bkName != "" {
		b, err := backend.Get(*bkName)
		if err != nil {
			fatal(err)
		}
		backendName = b.Name()
	}
	proj, err := core.New(tctx, tgt.Machine(*seed), core.Options{Backend: backendName, Memory: tgt.Memory})
	if err != nil {
		fatal(err)
	}
	ctx := experiments.NewContextWithProjector(proj)
	if tgt.Name != target.DefaultName {
		fmt.Printf("(evaluation on non-paper hardware: %s)\n\n", tgt)
	}
	if backendName != backend.DefaultName {
		fmt.Printf("(evaluation through the %s prediction backend)\n\n", backendName)
	}

	if *csvDir != "" {
		section(tctx, "csv", func(sctx context.Context) error {
			files, err := ctx.WriteCSVCtx(sctx, *csvDir)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %d CSV files to %s\n\n", len(files), *csvDir)
			return nil
		})
	}

	if *all || *fig == 2 {
		section(tctx, "fig2", func(_ context.Context) error {
			rows, err := ctx.Fig2()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig2(rows))
			if *charts {
				chart, err := experiments.ChartFig2(rows)
				if err != nil {
					return err
				}
				fmt.Println(chart)
			}
			return nil
		})
	}
	if *all || *fig == 3 {
		section(tctx, "fig3", func(_ context.Context) error {
			rows, err := ctx.Fig3()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig3(rows))
			return nil
		})
	}
	if *all || *fig == 4 {
		section(tctx, "fig4", func(_ context.Context) error {
			rows, sums, err := ctx.Fig4()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig4(rows, sums))
			if *charts {
				chart, err := experiments.ChartFig4(rows)
				if err != nil {
					return err
				}
				fmt.Println(chart)
			}
			return nil
		})
	}
	if *all || *table == 1 {
		section(tctx, "table1", func(sctx context.Context) error {
			rows, err := ctx.Table1Ctx(sctx)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable1(rows))
			return nil
		})
	}
	if *all || *fig == 5 {
		section(tctx, "fig5", func(sctx context.Context) error {
			points, meanErr, err := ctx.Fig5Ctx(sctx)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig5(points, meanErr))
			if *charts {
				chart, err := experiments.ChartFig5(points)
				if err != nil {
					return err
				}
				fmt.Println(chart)
			}
			return nil
		})
	}
	if *all || *fig == 6 {
		section(tctx, "fig6", func(sctx context.Context) error {
			points, err := ctx.Fig6Ctx(sctx)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFig6(points))
			return nil
		})
	}
	if *all || *fig == 7 {
		renderBySize(tctx, ctx, "Figure 7", "CFD")
	}
	if *all || *fig == 8 {
		renderIters(tctx, ctx, "Figure 8", "CFD", "233K",
			[]int{1, 2, 4, 8, 16, 32, 64}, *charts)
	}
	if *all || *fig == 9 {
		renderBySize(tctx, ctx, "Figure 9", "HotSpot")
	}
	if *all || *fig == 10 {
		renderIters(tctx, ctx, "Figure 10", "HotSpot", "1024 x 1024",
			[]int{1, 2, 4, 8, 16, 32, 64, 128, 256}, *charts)
	}
	if *all || *fig == 11 {
		renderBySize(tctx, ctx, "Figure 11", "SRAD")
	}
	if *all || *fig == 12 {
		renderIters(tctx, ctx, "Figure 12", "SRAD", "4096 x 4096",
			[]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, *charts)
	}
	if *all || *stassuij {
		section(tctx, "stassuij", func(sctx context.Context) error {
			res, err := ctx.StassuijCtx(sctx)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderStassuij(res))
			return nil
		})
	}
	if *all || *table == 2 {
		section(tctx, "table2", func(sctx context.Context) error {
			res, err := ctx.Table2Ctx(sctx)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable2(res))
			return nil
		})
	}
	if *all || *future {
		section(tctx, "futurework", func(_ context.Context) error {
			rows, err := ctx.FutureWork()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFutureWork(rows))
			return nil
		})
	}
	if n := *robust; n > 0 || *all {
		if n == 0 {
			n = 8
		}
		section(tctx, "robustness", func(sctx context.Context) error {
			res, err := experiments.RobustnessCtx(sctx, *seed, n)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderRobustness(res))
			return nil
		})
	}
	if *all || *decision {
		section(tctx, "decisionmap", func(sctx context.Context) error {
			flops, iters := experiments.DefaultDecisionAxes()
			res, err := ctx.DecisionMapCtx(sctx, 1024, flops, iters)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderDecisionMap(res))
			return nil
		})
	}
	if *all || *busgen {
		section(tctx, "busgen", func(sctx context.Context) error {
			rows, err := experiments.BusGenerationsCtx(sctx, *seed)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderBusGenerations(rows))
			return nil
		})
	}
	if *all || *pinned {
		section(tctx, "pinned", func(sctx context.Context) error {
			rows, err := experiments.PinnedAssumptionCtx(sctx, *seed)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderPinnedAssumption(rows))
			return nil
		})
	}

	if tracer != nil {
		tracer.Close()
		if err := tracer.Check(); err != nil {
			fatal(err)
		}
		data, err := tracer.ChromeJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "paper: wrote trace to %s\n", *traceOut)
	}
	if *showMet {
		fmt.Println()
		fmt.Print(metrics.Default.Dump())
	}
}

// section runs one experiment under a structural span and hands the
// span's context to the experiment, so per-kernel spans nest under
// it. Experiment spans consume no simulated time (the clock belongs
// to projected GPU time, which the experiments aggregate internally).
func section(tctx context.Context, name string, fn func(context.Context) error) {
	sctx, sp := trace.Start(tctx, name)
	defer sp.End()
	if err := fn(sctx); err != nil {
		fatal(err)
	}
}

func renderBySize(tctx context.Context, ctx *experiments.Context, title, app string) {
	section(tctx, "speedup-by-size "+app, func(sctx context.Context) error {
		rows, err := ctx.SpeedupBySizeCtx(sctx, app)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderSpeedupBySize(title+" ("+app+")", rows))
		return nil
	})
}

func renderIters(tctx context.Context, ctx *experiments.Context, title, app, size string, iters []int, charts bool) {
	section(tctx, "iteration-sweep "+app, func(sctx context.Context) error {
		sweep, err := ctx.IterationSweepCtx(sctx, app, size, iters)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderIterSweep(title, sweep))
		if charts {
			chart, err := experiments.ChartIterSweep(title, sweep)
			if err != nil {
				return err
			}
			fmt.Println(chart)
		}
		return nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}
