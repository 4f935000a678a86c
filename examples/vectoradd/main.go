// Vectoradd reproduces the paper's motivating example (§II-B): vector
// addition looks perfect for a GPU — massively parallel, trivially
// coalesced — yet once PCIe transfer time is counted, the CPU wins by
// roughly an order of magnitude.
//
// The paper's back-of-envelope version: with 77 GB/s of GPU memory
// bandwidth vs 32 GB/s on the CPU the GPU "should" win ~2.4x, but the
// three PCIe crossings at ~3 GB/s make the CPU ~10x faster overall.
// This example runs the same scenario through the full framework for
// a range of vector lengths.
//
// Run it with:
//
//	go run ./examples/vectoradd
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

func vecAdd(n int64) core.Workload {
	a := skeleton.NewArray("a", skeleton.Float32, n)
	b := skeleton.NewArray("b", skeleton.Float32, n)
	c := skeleton.NewArray("c", skeleton.Float32, n)
	k := &skeleton.Kernel{
		Name:  "vecadd",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(a, skeleton.Idx("i")),
				skeleton.LoadOf(b, skeleton.Idx("i")),
				skeleton.StoreOf(c, skeleton.Idx("i")),
			},
			Flops:  1,
			IntOps: 2,
		}},
	}
	return core.Workload{
		Name:     "VecAdd",
		DataSize: units.FormatBytes(3 * 4 * n),
		Seq: &skeleton.Sequence{
			Name:       "vecadd",
			Kernels:    []*skeleton.Kernel{k},
			Iterations: 1,
		},
		CPU: cpumodel.Workload{
			Name:         "vecadd-cpu",
			Elements:     n,
			FlopsPerElem: 1,
			BytesPerElem: 12,
			Vectorizable: true,
			Regions:      1,
		},
	}
}

func main() {
	projector, err := core.New(context.Background(), core.NewMachine(2), core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("vector addition: the GPU 'obviously' wins... until the bus bill arrives")
	fmt.Printf("\n%12s %14s %14s %12s %12s %12s\n",
		"elements", "GPU kernel", "PCIe xfer", "GPU total", "CPU total", "speedup")
	for _, n := range []int64{1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24} {
		rep, err := projector.Evaluate(vecAdd(n))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12d %14s %14s %12s %12s %11.2fx\n",
			n,
			units.FormatSeconds(rep.MeasKernelTime),
			units.FormatSeconds(rep.MeasTransferTime),
			units.FormatSeconds(rep.MeasTotalGPU()),
			units.FormatSeconds(rep.CPUTime),
			rep.MeasuredSpeedup())
	}

	rep, err := projector.Evaluate(vecAdd(1 << 24))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nat 16M elements the kernel-only projection says %.1fx (GPU wins);\n",
		rep.SpeedupKernelOnly())
	fmt.Printf("with transfers modeled, GROPHECY++ projects %.2fx — the CPU is ~%.0fx faster.\n",
		rep.SpeedupFull(), 1/rep.SpeedupFull())
	fmt.Println("conclusion (paper §II-B): you cannot debate CPU vs GPU without the data.")
}
