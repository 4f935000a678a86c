// Itersweep studies transfer amortization (paper §IV-B and Figures 8,
// 10, 12): iterative applications upload their data once, iterate on
// the GPU, and download once — so the transfer overhead is amortized
// as the iteration count grows, and predictions with and without
// transfer modeling converge.
//
// This example sweeps HotSpot's iteration count and reports two
// numbers a user planning a port actually wants:
//
//   - the break-even iteration count where the GPU starts beating the
//     CPU, and
//   - the iteration count beyond which ignoring transfer time is an
//     acceptable (<10%) approximation.
//
// Run it with:
//
//	go run ./examples/itersweep
package main

import (
	"context"
	"fmt"
	"log"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/stats"
)

func main() {
	w, err := bench.HotSpot("1024 x 1024")
	if err != nil {
		log.Fatal(err)
	}
	projector, err := core.New(context.Background(), core.NewMachine(3), core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	iters := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	reports, err := projector.EvaluateIterations(w, iters)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("HotSpot %s: transfer amortization across iterations\n\n", w.DataSize)
	fmt.Printf("%10s %10s %12s %14s %16s\n",
		"iters", "measured", "pred(K+T)", "pred(K only)", "K-only error")

	breakEven := -1
	ignorable := -1
	for _, rep := range reports {
		kOnlyErr := stats.ErrorMagnitude(rep.SpeedupKernelOnly(), rep.MeasuredSpeedup())
		fmt.Printf("%10d %9.2fx %11.2fx %13.2fx %15.0f%%\n",
			rep.Iterations, rep.MeasuredSpeedup(), rep.SpeedupFull(),
			rep.SpeedupKernelOnly(), 100*kOnlyErr)
		if breakEven < 0 && rep.SpeedupFull() > 1 {
			breakEven = rep.Iterations
		}
		if ignorable < 0 && kOnlyErr < 0.10 {
			ignorable = rep.Iterations
		}
	}
	limitMeas, limitPred := reports[len(reports)-1].LimitSpeedups()
	fmt.Printf("%10s %9.2fx %11.2fx %13.2fx\n", "infinity", limitMeas, limitPred, limitPred)

	fmt.Println()
	if breakEven >= 0 {
		fmt.Printf("GPU beats CPU from ~%d iteration(s).\n", breakEven)
	} else {
		fmt.Println("GPU never beats the CPU in the swept range.")
	}
	if ignorable >= 0 {
		fmt.Printf("ignoring transfers becomes a <10%% approximation only after ~%d iterations;\n", ignorable)
		fmt.Println("below that, a kernel-only model badly oversells the GPU (the paper's point).")
	} else {
		fmt.Println("even at 512 iterations a kernel-only model still errs by >10%.")
	}
}
