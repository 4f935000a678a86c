package experiments

import (
	"context"
	"fmt"
	"strings"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/skeleton"
)

// Decision map: an extension of the paper's evaluation that
// characterizes *where* in workload space transfer modeling matters.
// The paper shows one flip (Stassuij); this experiment sweeps a
// synthetic streaming kernel over arithmetic intensity and iteration
// count and classifies, at every point, whether a kernel-only model
// reaches the correct port/no-port verdict. The flip region — where
// plain GROPHECY says "port" but the machine says "don't" — is
// exactly the region GROPHECY++ was built for.

// Verdict classifies one point of the decision map.
type Verdict byte

const (
	// BothAgreeWin: both models predict a GPU win, and it is one.
	BothAgreeWin Verdict = 'W'
	// BothAgreeLoss: both predict a loss, and it is one.
	BothAgreeLoss Verdict = '.'
	// KernelOnlyFlips: kernel-only predicts a win, but the measured
	// outcome is a loss — the Stassuij failure mode.
	KernelOnlyFlips Verdict = 'F'
	// FullModelWrong: GROPHECY++'s verdict disagrees with the
	// measurement (should be rare: only near the break-even line).
	FullModelWrong Verdict = '?'
)

// DecisionPoint is one cell of the map.
type DecisionPoint struct {
	FlopsPerElem int
	Iterations   int
	Measured     float64
	PredFull     float64
	PredKernel   float64
	Verdict      Verdict
}

// DecisionMapResult is the swept grid.
type DecisionMapResult struct {
	FlopsAxis []int // rows
	IterAxis  []int // columns
	Points    [][]DecisionPoint
}

// streamWorkload builds the synthetic kernel of the sweep: an
// elementwise transform of an n x n float32 grid with a configurable
// per-element flop count, mirrored on the CPU side.
func streamWorkload(n int64, flopsPerElem, iterations int) core.Workload {
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	k := &skeleton.Kernel{
		Name:  "stream",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops:  flopsPerElem,
			IntOps: 4,
		}},
	}
	return core.Workload{
		Name:     "Stream",
		DataSize: fmt.Sprintf("%dx%d f%d", n, n, flopsPerElem),
		Seq: &skeleton.Sequence{
			Name:       "stream",
			Kernels:    []*skeleton.Kernel{k},
			Iterations: iterations,
		},
		CPU: cpumodel.Workload{
			Name:         "stream-cpu",
			Elements:     n * n,
			FlopsPerElem: float64(flopsPerElem),
			BytesPerElem: 8,
			Vectorizable: true,
			Regions:      1,
		},
	}
}

// DecisionMap sweeps the synthetic workload over the two axes on one
// machine. gridN fixes the data size (gridN x gridN float32). Every
// sweep cell's kernel spans attach to the caller's wall-clock trace.
func (c *Context) DecisionMap(ctx context.Context, gridN int64, flopsAxis, iterAxis []int) (DecisionMapResult, error) {
	if gridN <= 0 {
		return DecisionMapResult{}, fmt.Errorf("experiments: non-positive grid size")
	}
	if len(flopsAxis) == 0 || len(iterAxis) == 0 {
		return DecisionMapResult{}, fmt.Errorf("experiments: empty sweep axis")
	}
	res := DecisionMapResult{FlopsAxis: flopsAxis, IterAxis: iterAxis}
	for _, f := range flopsAxis {
		row := make([]DecisionPoint, 0, len(iterAxis))
		for _, it := range iterAxis {
			if f <= 0 || it <= 0 {
				return DecisionMapResult{}, fmt.Errorf("experiments: non-positive sweep value")
			}
			rep, err := c.P.Evaluate(ctx, streamWorkload(gridN, f, it))
			if err != nil {
				return DecisionMapResult{}, err
			}
			pt := DecisionPoint{
				FlopsPerElem: f,
				Iterations:   it,
				Measured:     rep.MeasuredSpeedup(),
				PredFull:     rep.SpeedupFull(),
				PredKernel:   rep.SpeedupKernelOnly(),
			}
			measWin := pt.Measured > 1
			fullWin := pt.PredFull > 1
			kernelWin := pt.PredKernel > 1
			switch {
			case fullWin != measWin:
				pt.Verdict = FullModelWrong
			case kernelWin && !measWin:
				pt.Verdict = KernelOnlyFlips
			case measWin:
				pt.Verdict = BothAgreeWin
			default:
				pt.Verdict = BothAgreeLoss
			}
			row = append(row, pt)
		}
		res.Points = append(res.Points, row)
	}
	return res, nil
}

// FlipCount returns how many cells fall in the Stassuij failure mode.
func (r DecisionMapResult) FlipCount() int {
	n := 0
	for _, row := range r.Points {
		for _, pt := range row {
			if pt.Verdict == KernelOnlyFlips {
				n++
			}
		}
	}
	return n
}

// FullModelErrors returns how many cells GROPHECY++ itself misjudges.
func (r DecisionMapResult) FullModelErrors() int {
	n := 0
	for _, row := range r.Points {
		for _, pt := range row {
			if pt.Verdict == FullModelWrong {
				n++
			}
		}
	}
	return n
}

// RenderDecisionMap prints the grid: rows are arithmetic intensity,
// columns iteration count.
func RenderDecisionMap(r DecisionMapResult) string {
	var b strings.Builder
	b.WriteString("Decision map: does a kernel-only model reach the right port verdict?\n")
	b.WriteString("rows: flops/element; cols: iterations\n")
	b.WriteString("W = real GPU win, . = real loss (both models agree),\n")
	b.WriteString("F = kernel-only model FLIPS the verdict (predicts a win that is a loss),\n")
	b.WriteString("? = even the transfer-aware model misjudges (break-even boundary)\n\n")
	fmt.Fprintf(&b, "%10s", "")
	for _, it := range r.IterAxis {
		fmt.Fprintf(&b, " %5d", it)
	}
	b.WriteString("\n")
	for i, f := range r.FlopsAxis {
		fmt.Fprintf(&b, "%10d", f)
		for j := range r.IterAxis {
			fmt.Fprintf(&b, " %5c", r.Points[i][j].Verdict)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nkernel-only flips: %d cells; transfer-aware misjudgements: %d cells\n",
		r.FlipCount(), r.FullModelErrors())
	return b.String()
}

// DefaultDecisionAxes returns the sweep used by cmd/paper and the
// benchmarks: intensities from pure streaming to compute-heavy,
// iteration counts from one-shot to well-amortized.
func DefaultDecisionAxes() (flops, iters []int) {
	return []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
		[]int{1, 2, 4, 8, 16, 32, 64}
}
