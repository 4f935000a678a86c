package core_test

import (
	"context"
	"fmt"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/skeleton"
)

// Example runs the full GROPHECY++ pipeline on a small stencil: build
// the machine, calibrate the PCIe model, evaluate, and compare the
// speedup predictions with and without transfer modeling.
func Example() {
	const n = 1024
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	k := &skeleton.Kernel{
		Name:  "stencil",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops: 4,
		}},
	}
	w := core.Workload{
		Name:     "Example",
		DataSize: "1024 x 1024",
		Seq:      &skeleton.Sequence{Name: "ex", Kernels: []*skeleton.Kernel{k}, Iterations: 1},
		CPU: cpumodel.Workload{
			Name: "ex-cpu", Elements: n * n,
			FlopsPerElem: 4, BytesPerElem: 8, Vectorizable: true, Regions: 1,
		},
	}

	projector, err := core.New(context.Background(), core.NewMachine(1), core.Options{})
	if err != nil {
		panic(err)
	}
	rep, err := projector.Evaluate(context.Background(), w)
	if err != nil {
		panic(err)
	}

	fmt.Printf("transfers planned: %d up, %d down\n", len(rep.Plan.Uploads), len(rep.Plan.Downloads))
	fmt.Printf("kernel-only prediction optimistic: %v\n", rep.SpeedupKernelOnly() > rep.SpeedupFull())
	fmt.Printf("full prediction within 25%% of measurement: %v\n", rep.ErrFull() < 0.25)
	// Output:
	// transfers planned: 1 up, 1 down
	// kernel-only prediction optimistic: true
	// full prediction within 25% of measurement: true
}
