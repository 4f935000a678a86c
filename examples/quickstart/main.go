// Quickstart: project the GPU speedup of a simple image-blur loop
// nest with GROPHECY++, end to end.
//
// The flow mirrors Figure 1 of the paper:
//
//  1. describe the CPU code as a code skeleton (arrays, loops,
//     accesses, computational intensity);
//  2. build a machine (here the paper's Argonne node: Xeon E5405,
//     Quadro FX 5600, PCIe v1) and let GROPHECY++ auto-calibrate its
//     PCIe transfer model from two measurements;
//  3. evaluate: the framework explores GPU transformations, projects
//     the best kernel time, analyzes data usage to plan transfers,
//     prices the transfers with the linear model, and reports the
//     projected speedup with and without transfer modeling.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/units"
)

func main() {
	const n = 2048 // image is n x n float32

	// Step 1: the code skeleton. The CPU code being considered for
	// porting is a 5-point blur:
	//
	//	for i, j in [0,n) x [0,n):   // data-parallel
	//	    out[i][j] = (in[i][j] + in[i-1][j] + in[i+1][j]
	//	               + in[i][j-1] + in[i][j+1]) * 0.2
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	blur := &skeleton.Kernel{
		Name:  "blur5",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.IdxPlus("j", -1)),
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.IdxPlus("j", 1)),
				skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops:  5,
			IntOps: 12,
		}},
	}

	workload := core.Workload{
		Name:     "Blur",
		DataSize: fmt.Sprintf("%d x %d", n, n),
		Seq: &skeleton.Sequence{
			Name:       "blur",
			Kernels:    []*skeleton.Kernel{blur},
			Iterations: 1,
		},
		// The measured CPU baseline: the same loop under OpenMP.
		CPU: cpumodel.Workload{
			Name:         "blur-cpu",
			Elements:     n * n,
			FlopsPerElem: 5,
			BytesPerElem: 8, // streamed read + write; neighbors hit cache
			Vectorizable: true,
			Regions:      1,
		},
	}

	// Step 2: the machine and the auto-calibrated projector.
	machine := core.NewMachine(1)
	projector, err := core.New(context.Background(), machine, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine: %s + %s\n", machine.CPUArch.Name, machine.GPUArch.Name)
	fmt.Printf("PCIe model: %s\n\n", projector.BusModel().Dir[0])

	// Step 3: evaluate.
	rep, err := projector.Evaluate(workload)
	if err != nil {
		log.Fatal(err)
	}

	best := rep.Kernels[0]
	fmt.Printf("best GPU transformation: %s\n", best.Variant.Name)
	fmt.Printf("projected kernel time:   %s\n", units.FormatSeconds(best.Predicted))
	fmt.Printf("transfer plan:           %d uploads (%s), %d downloads (%s)\n",
		len(rep.Plan.Uploads), units.FormatBytes(rep.Plan.UploadBytes()),
		len(rep.Plan.Downloads), units.FormatBytes(rep.Plan.DownloadBytes()))
	fmt.Printf("projected transfer time: %s\n\n", units.FormatSeconds(rep.PredTransferTime))

	fmt.Printf("projected speedup, kernel only:     %5.2fx  <- plain GROPHECY\n", rep.SpeedupKernelOnly())
	fmt.Printf("projected speedup, kernel+transfer: %5.2fx  <- GROPHECY++\n", rep.SpeedupFull())
	fmt.Printf("measured speedup (simulated port):  %5.2fx\n\n", rep.MeasuredSpeedup())

	switch {
	case rep.SpeedupFull() > 1.2:
		fmt.Println("verdict: porting to the GPU looks worthwhile.")
	case rep.SpeedupFull() > 0.9:
		fmt.Println("verdict: marginal — the PCIe transfers eat the kernel win.")
	default:
		fmt.Println("verdict: do not port — data transfer makes the GPU slower overall.")
	}
}
