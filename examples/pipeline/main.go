// Pipeline demonstrates multi-phase programs with GPU-residency-aware
// transfer planning: an image-processing pipeline (denoise -> sharpen
// -> tone-map -> quantize) where the intermediate results stay in GPU
// memory between phases, so only the first upload and the final
// download cross the bus.
//
// The paper's related-work section points at exactly this use: its
// framework "could help [automatic CPU-GPU communication management]
// optimize the compiler transformation, by identifying which array
// sections need to be transferred" (§VI). This example compares
// residency-aware planning against naive per-phase planning.
//
// Run it with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/program"
	"grophecy/internal/skeleton"
	"grophecy/internal/units"
)

const n = 2048 // the image is n x n float32

// stage builds one in-place image-processing phase.
func stage(name string, img *skeleton.Array, flops, transc int) program.Phase {
	k := &skeleton.Kernel{
		Name:  name,
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(img, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(img, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.LoadOf(img, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.StoreOf(img, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops:           flops,
			Transcendentals: transc,
		}},
	}
	return program.Phase{Seq: &skeleton.Sequence{
		Name: name, Kernels: []*skeleton.Kernel{k}, Iterations: 1,
	}}
}

func main() {
	img := skeleton.NewArray("img", skeleton.Float32, n, n)
	prog := &program.Program{
		Name: "image-pipeline",
		Phases: []program.Phase{
			stage("denoise", img, 14, 2),
			stage("sharpen", img, 10, 0),
			stage("tonemap", img, 8, 3),
			stage("quantize", img, 6, 0),
		},
	}
	baseline := cpumodel.Workload{
		Name: "pipeline-cpu", Elements: 4 * n * n,
		FlopsPerElem: 10, BytesPerElem: 12, TranscendentalsPerElem: 1.2,
		Regions: 4,
	}

	projector, err := core.New(context.Background(), core.NewMachine(13), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := projector.EvaluateProgram(context.Background(), prog, baseline)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("image pipeline: 4 phases over one %dx%d image\n\n", n, n)
	fmt.Printf("%-10s %12s %12s %10s\n", "phase", "kernels", "transfers", "moved")
	for i, ph := range rep.Phases {
		var bytes int64
		for _, tr := range ph.Transfers {
			bytes += tr.Transfer.Bytes()
		}
		fmt.Printf("%-10s %12s %12s %10s\n",
			prog.Phases[i].Seq.Name,
			units.FormatSeconds(ph.MeasKernelTime),
			units.FormatSeconds(ph.MeasTransferTime),
			units.FormatBytes(bytes))
	}

	pk, mk, px, mx := rep.Totals()
	fmt.Printf("\ntotals: kernels %s (pred %s), transfers %s (pred %s)\n",
		units.FormatSeconds(mk), units.FormatSeconds(pk),
		units.FormatSeconds(mx), units.FormatSeconds(px))
	fmt.Printf("naive per-phase planning would predict %s of transfers;\n",
		units.FormatSeconds(rep.NaiveTransferPred))
	fmt.Printf("residency tracking eliminates %.0f%% of that.\n\n", 100*rep.ResidencySavings())
	fmt.Printf("projected speedup %.2fx, measured %.2fx\n",
		rep.SpeedupFull(), rep.MeasuredSpeedup())
}
