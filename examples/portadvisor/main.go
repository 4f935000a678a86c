// Portadvisor answers the question GROPHECY++ was built for (paper
// §II-C): "is it worth porting this code to a GPU?" — across several
// candidate GPUs, before writing a line of CUDA.
//
// It takes the paper's four benchmarks, projects each on three GPU
// generations (the paper's Quadro FX 5600, a Tesla C1060, and a Fermi
// Tesla C2050), and prints a ported/not-worth-it verdict per pair,
// demonstrating that the GPU performance model "can be configured to
// reflect different GPU architectures".
//
// Run it with:
//
//	go run ./examples/portadvisor
package main

import (
	"context"
	"fmt"
	"log"

	"grophecy/internal/bench"
	"grophecy/internal/core"
	"grophecy/internal/gpu"
	"grophecy/internal/target"
)

// worthIt is the decision threshold: the paper (footnote 7) notes a
// cutoff of exactly 1.0 "might be too low in practice" — a small win
// rarely justifies the porting effort.
const worthIt = 1.3

func main() {
	workloads := []core.Workload{}
	for _, pick := range []struct{ app, size string }{
		{"CFD", "233K"},
		{"HotSpot", "1024 x 1024"},
		{"SRAD", "4096 x 4096"},
		{"Stassuij", "132x132 x 132x2048"},
	} {
		w, err := findWorkload(pick.app, pick.size)
		if err != nil {
			log.Fatal(err)
		}
		workloads = append(workloads, w)
	}

	fmt.Println("port advisor: projected GPU speedup (kernel + transfer) per device")
	fmt.Printf("decision threshold: %.1fx (paper footnote 7: >1.0x alone is rarely worth the effort)\n", worthIt)
	fmt.Printf("\n%-10s", "")
	for _, arch := range gpu.Presets() {
		fmt.Printf(" %24s", shortName(arch.Name))
	}
	fmt.Println()

	for _, w := range workloads {
		fmt.Printf("%-10s", w.Name)
		for _, arch := range gpu.Presets() {
			tgt, err := target.ForGPU(arch.Name)
			if err != nil {
				log.Fatal(err)
			}
			projector, err := core.New(context.Background(), tgt.Machine(7), core.Options{})
			if err != nil {
				log.Fatal(err)
			}
			rep, err := projector.Evaluate(context.Background(), w)
			if err != nil {
				log.Fatal(err)
			}
			verdict := "skip"
			if rep.SpeedupFull() >= worthIt {
				verdict = "PORT"
			}
			fmt.Printf(" %17.2fx %-5s", rep.SpeedupFull(), verdict)
		}
		fmt.Println()
	}

	fmt.Println("\nnotes:")
	fmt.Println("  - Stassuij stays a slowdown on every device: its transfer volume")
	fmt.Println("    dwarfs one pass of compute (paper §V-B4).")
	fmt.Println("  - newer devices improve the kernel but not the PCIe bus, so the")
	fmt.Println("    verdict moves less than raw GFLOPS suggest.")
}

func shortName(full string) string {
	// "NVIDIA Quadro FX 5600" -> "Quadro FX 5600"
	const prefix = "NVIDIA "
	if len(full) > len(prefix) && full[:len(prefix)] == prefix {
		return full[len(prefix):]
	}
	return full
}

func findWorkload(app, size string) (core.Workload, error) {
	for _, w := range bench.MustAll() {
		if w.Name == app && w.DataSize == size {
			return w, nil
		}
	}
	return core.Workload{}, fmt.Errorf("no workload %q %q", app, size)
}
