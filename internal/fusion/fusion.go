// Package fusion implements temporal kernel fusion for iterative
// stencil kernels — the optimization the paper mentions for HotSpot:
// "Multiple invocations of the same kernel across several iterations
// can be fused together" (§IV-B).
//
// Fusing f time steps into one kernel launch trades three currencies:
//
//   - launch overhead: iterations/f launches instead of iterations;
//   - global traffic: the tile is loaded and stored once per f steps
//     instead of once per step;
//   - redundant computation: each block must work on a halo-expanded
//     tile that shrinks by the stencil radius every fused step (the
//     classic trapezoid), multiplying per-step compute by roughly
//     (1 + r·f/bx)(1 + r·f/by);
//   - shared memory: the expanded tile must fit, which caps f.
//
// Explore enumerates fusion factors, synthesizes the per-launch
// characteristics of each, prices them with the analytical model, and
// returns the total-time ranking. It is an *extension* of GROPHECY's
// transformation space: the paper's explorer picks the best spatial
// mapping of one step; this adds the temporal axis.
package fusion

import (
	"context"
	"fmt"
	"sort"

	"grophecy/internal/gpu"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/transform"
)

// Candidate is one fusion factor's projected outcome.
type Candidate struct {
	// Factor is the number of time steps fused per launch.
	Factor int
	// Launches is ceil(iterations / Factor).
	Launches int
	// Ch is the synthesized per-launch kernel characteristics.
	Ch perfmodel.Characteristics
	// Proj is the analytical projection of one launch.
	Proj perfmodel.Projection
	// TotalTime is Launches x Proj.Time: the projected time for the
	// whole iteration loop.
	TotalTime float64
}

// factors is the candidate fusion ladder.
var factors = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// Explore enumerates fusion factors for an iterative stencil kernel.
// The kernel must have stencil reuse (a radius to fuse over); the
// base spatial transformation is the best variant GROPHECY finds for
// a single step.
func Explore(k *skeleton.Kernel, arch gpu.Arch, iterations int) ([]Candidate, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("fusion: iteration count %d below 1", iterations)
	}
	info, ok := transform.Stencil(k, arch)
	if !ok {
		return nil, fmt.Errorf("fusion: kernel %q has no stencil reuse to fuse over", k.Name)
	}
	base, _, err := transform.Best(context.Background(), k, arch)
	if err != nil {
		return nil, err
	}

	rx, ry := info.Radius[0], info.Radius[1]
	if rx == 0 && ry == 0 {
		return nil, fmt.Errorf("fusion: kernel %q has zero stencil radius", k.Name)
	}
	bx, by := int64(base.BlockDims[0]), int64(base.BlockDims[1])

	var out []Candidate
	for _, f := range factors {
		if f > iterations {
			break
		}
		ch := fuse(base, f, rx, ry, bx, by)
		proj, err := perfmodel.Project(arch, ch)
		if err != nil {
			// Tile no longer fits (shared memory or registers):
			// larger factors only get worse.
			break
		}
		launches := (iterations + f - 1) / f
		out = append(out, Candidate{
			Factor:    f,
			Launches:  launches,
			Ch:        ch,
			Proj:      proj,
			TotalTime: float64(launches) * proj.Time,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fusion: no fusion factor is launchable for kernel %q", k.Name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalTime < out[j].TotalTime })
	return out, nil
}

// fuse synthesizes per-launch characteristics for fusion factor f on
// top of the base single-step variant.
func fuse(base transform.Variant, f int, rx, ry, bx, by int64) perfmodel.Characteristics {
	ch := base.Ch
	ff := float64(f)

	// Redundant trapezoid work: the halo shrinks rx/ry per step, so
	// on average each step computes on a tile expanded by ~r*f/2.
	redundancy := (1 + float64(rx)*ff/(2*float64(bx)))
	if by > 1 {
		redundancy *= 1 + float64(ry)*ff/(2*float64(by))
	}
	ch.Name = fmt.Sprintf("%s+fuse%d", base.Ch.Name, f)
	ch.CompInstsPerThread = base.Ch.CompInstsPerThread * ff * redundancy
	ch.SyncsPerThread = base.Ch.SyncsPerThread*ff + ff // one barrier per fused step

	// Global traffic happens once per launch instead of once per
	// step; the expanded halo inflates the fill slightly.
	tileX := bx + 2*rx*int64(f)
	tileY := int64(1)
	if by > 1 {
		tileY = by + 2*ry*int64(f)
	}
	fillGrowth := float64(tileX*tileY) / float64(bx*by)
	ch.GlobalLoadsPerThread = base.Ch.GlobalLoadsPerThread * fillGrowth
	ch.GlobalStoresPerThread = base.Ch.GlobalStoresPerThread
	ch.BytesPerThread = base.Ch.BytesPerThread * (fillGrowth + 1) / 2

	// Shared memory holds the expanded tile (double-buffered across
	// fused steps).
	elem := int64(4)
	if base.Ch.SharedMemPerBlock > 0 && base.Ch.GlobalLoadsPerThread > 0 {
		// Keep the base variant's effective element size.
		elem = base.Ch.SharedMemPerBlock / max64(bx*by, 1)
		if elem < 4 {
			elem = 4
		}
	}
	// The trapezoid bookkeeping lives in shared memory and loop
	// counters already counted as instructions; register pressure
	// stays at the base variant's level.
	ch.SharedMemPerBlock = 2 * tileX * tileY * elem
	return ch
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Best returns the fastest candidate (Explore already sorts).
func Best(k *skeleton.Kernel, arch gpu.Arch, iterations int) (Candidate, error) {
	cands, err := Explore(k, arch, iterations)
	if err != nil {
		return Candidate{}, err
	}
	return cands[0], nil
}

// UnfusedTime returns the projected total time without fusion (the
// factor-1 candidate), for reporting speedups.
func UnfusedTime(cands []Candidate) (float64, bool) {
	for _, c := range cands {
		if c.Factor == 1 {
			return c.TotalTime, true
		}
	}
	return 0, false
}
