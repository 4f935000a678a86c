// Tuningstudy drives the extension features end to end on a
// user-authored skeleton: parse a kernel from skeleton-language
// source, explore temporal fusion factors for an iterative run, and
// plan host memory kinds with allocation overhead — the paper's §VII
// future-work agenda as a working tool.
//
// Run it with:
//
//	go run ./examples/tuningstudy
package main

import (
	"context"
	"fmt"
	"log"

	"grophecy/internal/core"
	"grophecy/internal/datausage"
	"grophecy/internal/fusion"
	"grophecy/internal/memplan"
	"grophecy/internal/pcie"
	"grophecy/internal/sklang"
	"grophecy/internal/units"
)

// source is the workload under study, in skeleton-language syntax: a
// memory-bound Jacobi relaxation over a 2048x2048 grid, run for 200
// sweeps.
const source = `
workload "Jacobi" size "2048 x 2048"

array u[2048][2048] float32
array unew[2048][2048] float32

kernel jacobi {
    parfor i in 0..2048 {
        parfor j in 0..2048 {
            stmt flops=5 intops=6 {
                load u[i][j]
                load u[i-1][j]
                load u[i+1][j]
                load u[i][j-1]
                load u[i][j+1]
                store unew[i][j]
            }
        }
    }
}

sequence iterations=200 { jacobi }

cpu elements=4194304 flops=5 bytes=8 vectorizable=true regions=1
`

func main() {
	w, err := sklang.Parse(source)
	if err != nil {
		log.Fatal(err)
	}
	machine := core.NewMachine(9)
	projector, err := core.New(context.Background(), machine, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tuning study: %s %s, %d iterations on %s\n\n",
		w.Name, w.DataSize, w.Seq.Iterations, machine.GPUArch.Name)

	// Baseline projection.
	rep, err := projector.Evaluate(context.Background(), w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline projection: kernels %s + transfers %s -> speedup %.2fx\n\n",
		units.FormatSeconds(rep.PredKernelTime),
		units.FormatSeconds(rep.PredTransferTime),
		rep.SpeedupFull())

	// Axis 1: temporal fusion of the stencil sweep.
	cands, err := fusion.Explore(w.Seq.Kernels[0], machine.GPUArch, w.Seq.Iterations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("temporal fusion (fuse f sweeps per kernel launch):")
	fmt.Printf("%8s %10s %14s %14s\n", "factor", "launches", "per-launch", "total")
	for _, c := range cands {
		marker := ""
		if c.Factor == cands[0].Factor {
			marker = "  <- best"
		}
		fmt.Printf("%8d %10d %14s %14s%s\n",
			c.Factor, c.Launches,
			units.FormatSeconds(c.Proj.Time), units.FormatSeconds(c.TotalTime), marker)
	}
	unfused, _ := fusion.UnfusedTime(cands)
	fmt.Printf("fusion speedup on the kernel loop: %.2fx\n\n", unfused/cands[0].TotalTime)

	// Axis 2: host memory planning with allocation overhead.
	allocator := pcie.NewAllocator(machine.Bus, pcie.DefaultAllocConfig())
	models, err := memplan.Calibrate(machine.Bus, allocator)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := datausage.Analyze(w.Seq, w.Hints)
	if err != nil {
		log.Fatal(err)
	}
	mp, err := memplan.Build(plan, models)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("host memory planning (allocation + transfer, per array):")
	fmt.Print(mp)

	fmt.Println("\ntakeaway: for long iterative runs the transfers amortize and the")
	fmt.Println("kernel loop dominates — fusion is the lever; for one-shot runs the")
	fmt.Println("bus dominates and memory planning is the lever. GROPHECY++ prices both.")
}
