// Command pciecal runs the automatic PCIe calibration GROPHECY++
// performs on each new system (paper §III-C) against the simulated
// bus, prints the derived model parameters, and validates them over
// the full power-of-two sweep (paper §V-A / Figure 4).
//
// Usage:
//
//	pciecal                  # two-point calibration + validation
//	pciecal -pageable        # calibrate for pageable host memory
//	pciecal -leastsquares    # the full-regression ablation
//	pciecal -sweep           # print the raw Figure 2 sweep as well
//	pciecal -trace cal.json -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"grophecy/internal/experiments"
	"grophecy/internal/metrics"
	"grophecy/internal/obs"
	"grophecy/internal/pcie"
	"grophecy/internal/trace"
	"grophecy/internal/units"
	"grophecy/internal/xfermodel"
)

func main() {
	var (
		seed     = flag.Uint64("seed", experiments.DefaultSeed, "simulated bus seed")
		pageable = flag.Bool("pageable", false, "calibrate for pageable host memory")
		ls       = flag.Bool("leastsquares", false, "use the least-squares ablation instead of the paper's two-point scheme")
		sweep    = flag.Bool("sweep", false, "also print the raw transfer-time sweep (Figure 2)")
		runs     = flag.Int("runs", 10, "transfers averaged per measurement")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this path")
		showMet  = flag.Bool("metrics", false, "dump pipeline metrics (Prometheus text format) after the output")
		logFmt   = flag.String("log-format", "text", obs.LogFormatUsage)
		logLevel = flag.String("log-level", "warn", obs.LogLevelUsage)
	)
	flag.Parse()

	ctx, err := obs.Setup(context.Background(), os.Stderr, *logFmt, *logLevel)
	if err != nil {
		fatal(err)
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New("pciecal")
		ctx = trace.With(ctx, tracer)
	}

	busCfg := pcie.DefaultConfig()
	busCfg.Seed = *seed
	bus := pcie.NewBus(busCfg)

	cfg := xfermodel.DefaultCalibration()
	cfg.Runs = *runs
	if *pageable {
		cfg.Kind = pcie.Pageable
	}

	sizes, err := xfermodel.PowerOfTwoSizes(1, 512*units.MB)
	if err != nil {
		fatal(err)
	}

	var model xfermodel.BusModel
	_, calSpan := trace.Start(ctx, "xfermodel.calibrate")
	if *ls {
		fmt.Println("calibration: ordinary least squares over the full sweep (ablation)")
		calSpan.SetAttr(trace.String("scheme", "least-squares"))
		model, err = xfermodel.CalibrateLeastSquares(xfermodel.MeanSampler(bus, cfg.Runs), cfg, sizes)
	} else {
		fmt.Printf("calibration: two-point (%s and %s, %d runs each; paper §III-C)\n",
			units.FormatBytes(cfg.SmallSize), units.FormatBytes(cfg.LargeSize), cfg.Runs)
		calSpan.SetAttr(trace.String("scheme", "raw two-point"))
		model, err = xfermodel.CalibrateTwoPoint(ctx, xfermodel.MeanSampler(bus, cfg.Runs), cfg, nil)
	}
	if err != nil {
		fatal(err)
	}
	calSpan.SetAttr(trace.Int("transfers", int64(model.CalibrationTransfers)))
	calSpan.SetAttr(trace.Float("bus_cost_s", model.CalibrationCost))
	calSpan.End()

	fmt.Printf("host memory: %v\n", model.Kind)
	fmt.Printf("calibration cost: %d transfers, %.2fs of bus time\n\n",
		model.CalibrationTransfers, model.CalibrationCost)
	for d := 0; d < pcie.NumDirections; d++ {
		fmt.Printf("%-10v %s\n", pcie.Direction(d), model.Dir[d])
	}

	_, valSpan := trace.Start(ctx, "xfermodel.validate",
		trace.Int("sizes", int64(len(sizes))), trace.Int("runs", int64(cfg.Runs)))
	points, err := xfermodel.Validate(bus, model, sizes, cfg.Runs)
	valSpan.End()
	if err != nil {
		fatal(err)
	}
	sums := xfermodel.SummarizeValidation(points)
	fmt.Println("\nvalidation over 1B..512MB (Figure 4):")
	for _, s := range sums {
		fmt.Printf("  %-10v mean error %5.1f%%  max error %5.1f%%  (%d sizes)\n",
			s.Dir, 100*s.MeanErr, 100*s.MaxErr, s.N)
	}

	if *sweep {
		fmt.Println()
		fmt.Printf("%10s %12s %12s %12s\n", "size", "measured", "predicted", "err")
		for _, p := range points {
			fmt.Printf("%10s %12s %12s %11.1f%%  (%v)\n",
				units.FormatBytes(p.Size),
				units.FormatSeconds(p.Measured), units.FormatSeconds(p.Predicted),
				100*p.ErrMag, p.Dir)
		}
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
		fmt.Fprintf(os.Stderr, "pciecal: wrote trace to %s\n", *traceOut)
	}
	if *showMet {
		fmt.Println()
		fmt.Print(metrics.Default.Dump())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pciecal:", err)
	os.Exit(1)
}
