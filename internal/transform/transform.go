// Package transform implements GROPHECY's transformation-space
// exploration (paper §II-C): given a code skeleton, enumerate
// plausible GPU mappings of the kernel — thread-block shapes,
// shared-memory staging of reused array sections, sequential-loop
// unrolling — and synthesize the performance characteristics of each
// variant for the analytical model.
//
// GROPHECY "automatically explores a number of different optimization
// approaches and projects the execution time for each transformation,
// without the need to implement and tune GPU code"; the projected
// kernel time is the best across variants, and the paper's measured
// kernels are hand-coded with the same strategies the explorer
// selected (§IV-A). This package reproduces exactly that contract:
// Enumerate produces the variants, and internal/core projects each,
// picks the winner, and hands the winner's characteristics to the
// timing simulator as the "hand-coded" implementation.
package transform

import (
	"context"
	"fmt"
	"math"
	"sort"

	"grophecy/internal/gpu"
	"grophecy/internal/metrics"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
	"grophecy/internal/trace"
)

var (
	mEnumerations = metrics.Default.MustCounter("transform_enumerations_total",
		"kernel transformation-space enumerations")
	mVariants = metrics.Default.MustCounter("transform_variants_total",
		"transformation variants produced across all enumerations")
)

// Variant is one explored transformation of a kernel.
type Variant struct {
	// Name encodes the transformation, e.g. "bs256/tiled/unroll2".
	Name string
	// BlockSize is threads per block; BlockDims is the 2D block shape
	// (BlockDims[1] is 1 for 1D kernels).
	BlockSize int
	BlockDims [2]int
	// SharedStaging marks variants that stage reused array tiles in
	// shared memory.
	SharedStaging bool
	// Unroll is the sequential-loop unroll factor.
	Unroll int
	// Ch is the synthesized input for the performance models.
	Ch perfmodel.Characteristics
}

// blockSizes is the candidate thread-block size ladder, all
// half-warp-aligned and within G80-era limits.
var blockSizes = []int{64, 128, 192, 256, 384, 512}

// unrollFactors are the candidate sequential-loop unroll factors.
var unrollFactors = []int{1, 2, 4}

// Enumerate explores the transformation space of one kernel on one
// architecture and returns every launchable variant's characteristics.
// The kernel must validate and have at least one parallel loop.
//
// Enumeration is memoized by kernel content and architecture (see
// cache.go): repeated projections of content-identical kernels — the
// daemon's steady state — return a clone of the cached variant set
// instead of re-running the analysis. The caller owns the returned
// slice either way.
func Enumerate(k *skeleton.Kernel, arch gpu.Arch) ([]Variant, error) {
	e, err := cachedEntry(k, arch)
	if err != nil {
		return nil, err
	}
	return cloneVariants(e.variants), nil
}

// enumerate is the memoization-free exploration: the cold path behind
// Enumerate, and the reference the property tests compare the cache
// against.
func enumerate(k *skeleton.Kernel, arch gpu.Arch) ([]Variant, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	par := k.ParallelLoops()
	if len(par) == 0 {
		return nil, fmt.Errorf("transform: kernel %q has no parallel loops to map to threads", k.Name)
	}

	an := analyzeKernel(k, arch)
	variants := make([]Variant, 0, 2*len(blockSizes)*len(unrollFactors))
	for _, bs := range blockSizes {
		if bs > arch.MaxThreadsPerBlock {
			continue
		}
		for _, unroll := range unrollFactors {
			if unroll > 1 && k.SequentialIterations() < int64(unroll) {
				continue // nothing to unroll
			}
			variants = append(variants, an.variant(bs, false, unroll))
			if an.stageable() {
				variants = append(variants, an.variant(bs, true, unroll))
			}
		}
	}
	// Deterministic order for reports.
	sort.Slice(variants, func(i, j int) bool { return variants[i].Name < variants[j].Name })
	mEnumerations.Inc()
	mVariants.Add(int64(len(variants)))
	return variants, nil
}

// analysis caches the skeleton-derived quantities shared by all
// variants of one kernel.
type analysis struct {
	k    *skeleton.Kernel
	arch gpu.Arch

	threads  int64
	seqIters int64
	dims     int // number of parallel dims mapped to the block (1 or 2)

	// Per innermost iteration.
	// Per GPU thread, weighted by each statement's execution depth.
	flopsPT, intOpsPT, transcPT float64
	loadsPT, storesPT           float64
	loadBytesPT, storeBytesPT   float64

	// Coalescing against the thread-x loop variable, weighted by
	// per-thread executions.
	regularW   float64
	irregularW float64
	uniformW   float64 // warp-uniform gathers: coalesced but data-dependent rows
	txnsSumW   float64 // sum of per-request transaction counts x weight

	// Stencil reuse groups eligible for shared-memory staging.
	groups []stencilGroup
}

// stencilGroup is a set of loads of one array that differ only in
// constant offsets — the classic staging opportunity.
type stencilGroup struct {
	array   *skeleton.Array
	loadsPT float64  // per-thread loads the staging eliminates
	radius  [2]int64 // max |offset| along the block dims
}

func analyzeKernel(k *skeleton.Kernel, arch gpu.Arch) *analysis {
	an := &analysis{
		k:        k,
		arch:     arch,
		threads:  k.ParallelIterations(),
		seqIters: k.SequentialIterations(),
	}
	par := k.ParallelLoops()
	an.dims = 1
	if len(par) >= 2 {
		an.dims = 2
	}
	// The thread-x variable is the innermost parallel loop: it varies
	// fastest across threads of a warp, so it decides coalescing.
	xVar := par[len(par)-1].Var
	yVar := ""
	if an.dims == 2 {
		yVar = par[len(par)-2].Var
	}

	groupLoads := make(map[*skeleton.Array]float64)
	groupCount := make(map[*skeleton.Array]int)
	groupRadius := make(map[*skeleton.Array][2]int64)

	halfWarp := int64(arch.WarpSize / 2)
	for _, st := range k.Stmts {
		execs := float64(k.ExecsPerThread(st))
		an.flopsPT += float64(st.Flops) * execs
		an.intOpsPT += float64(st.IntOps) * execs
		an.transcPT += float64(st.Transcendentals) * execs

		for _, ac := range st.Accesses {
			elem := ac.Array.Elem.Size()
			if ac.Kind == skeleton.Load {
				an.loadsPT += execs
				an.loadBytesPT += float64(elem) * execs
			} else {
				an.storesPT += execs
				an.storeBytesPT += float64(elem) * execs
			}

			if ac.IrregularIndex() {
				// Warp-uniform gather: if the thread-x variable
				// walks the affine dimensions unit-stride (e.g.
				// x[row(k)][c] with c mapped to threadIdx.x), the
				// data-dependent dimensions are constant across a
				// warp and the request coalesces like a stream.
				// Only the DRAM row locality across warps stays
				// data-dependent, so it counts as a quarter-weight
				// irregular request.
				if affineXCoeff(ac, xVar) == 1 {
					an.regularW += execs
					an.uniformW += execs
					perHalf := (elem*halfWarp + arch.CoalesceSegment - 1) / arch.CoalesceSegment
					an.txnsSumW += 2 * float64(perHalf) * execs
					continue
				}
				// Scattered gather: GROPHECY optimistically assumes
				// a data layout transformation can mostly coalesce
				// it; record the request as irregular so the
				// simulator can disagree. (A sparse array accessed
				// through an affine index — a CSR value stream —
				// coalesces normally and is NOT irregular here.)
				an.irregularW += execs
				continue
			}
			coeff, _ := ac.FlattenedCoeff(xVar)
			stride := coeff
			if stride < 0 {
				stride = -stride
			}
			var txns float64
			switch {
			case stride == 0:
				// Uniform address across the warp: one transaction
				// per half-warp.
				txns = 2
			default:
				bytesSpan := stride * elem
				perHalf := (halfWarp*bytesSpan + arch.CoalesceSegment - 1) / arch.CoalesceSegment
				if perHalf > halfWarp {
					perHalf = halfWarp
				}
				if perHalf < 1 {
					perHalf = 1
				}
				txns = 2 * float64(perHalf)
			}
			an.regularW += execs
			an.txnsSumW += txns * execs

			// Stencil-group detection for staging: loads whose
			// indices are (parallel var + const) per dimension.
			if ac.Kind == skeleton.Load && isStencilAccess(ac, xVar, yVar) {
				groupLoads[ac.Array] += execs
				groupCount[ac.Array]++
				r := groupRadius[ac.Array]
				offX, offY := stencilOffsets(ac, xVar, yVar)
				if abs := absInt64(offX); abs > r[0] {
					r[0] = abs
				}
				if abs := absInt64(offY); abs > r[1] {
					r[1] = abs
				}
				groupRadius[ac.Array] = r
			}
		}
	}
	for arr, count := range groupCount {
		if count >= 2 {
			an.groups = append(an.groups, stencilGroup{
				array:   arr,
				loadsPT: groupLoads[arr],
				radius:  groupRadius[arr],
			})
		}
	}
	sort.Slice(an.groups, func(i, j int) bool {
		return an.groups[i].array.Name < an.groups[j].array.Name
	})
	return an
}

// isStencilAccess reports whether every index dimension is either a
// constant or (block var + const) with coefficient 1.
func isStencilAccess(ac skeleton.Access, xVar, yVar string) bool {
	for _, e := range ac.Index {
		vars := e.Vars()
		switch len(vars) {
		case 0:
			continue
		case 1:
			v := vars[0]
			if (v != xVar && v != yVar) || e.Coeff(v) != 1 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// affineXCoeff returns the flattened coefficient of loop variable v
// over the affine dimensions of the access, ignoring irregular ones.
func affineXCoeff(ac skeleton.Access, v string) int64 {
	var total int64
	for dim, e := range ac.Index {
		if e.Irregular {
			continue
		}
		total += e.Coeff(v) * ac.Array.RowStride(dim)
	}
	return total
}

// stencilOffsets extracts the constant offsets along the x and y block
// variables of a stencil access.
func stencilOffsets(ac skeleton.Access, xVar, yVar string) (offX, offY int64) {
	for _, e := range ac.Index {
		if e.Uses(xVar) {
			offX = e.Const
		} else if yVar != "" && e.Uses(yVar) {
			offY = e.Const
		}
	}
	return offX, offY
}

// stageable reports whether any stencil group justifies staging.
func (an *analysis) stageable() bool { return len(an.groups) > 0 }

// blockShape picks a 2D block shape for a given size: x kept at a
// half-warp-friendly 16 (or the whole block for 1D kernels).
func (an *analysis) blockShape(bs int) [2]int {
	if an.dims == 1 {
		return [2]int{bs, 1}
	}
	bx := 16
	if bs < bx {
		bx = bs
	}
	return [2]int{bx, bs / bx}
}

// variant synthesizes the characteristics of one transformation.
func (an *analysis) variant(bs int, staging bool, unroll int) Variant {
	shape := an.blockShape(bs)
	name := fmt.Sprintf("bs%d", bs)
	if staging {
		name += "/tiled"
	}
	if unroll > 1 {
		name += fmt.Sprintf("/unroll%d", unroll)
	}

	// Instruction synthesis per thread: arithmetic plus one
	// addressing op per access plus sequential-loop control amortized
	// by unrolling.
	accesses := an.loadsPT + an.storesPT
	loopOverhead := 2.0 * float64(an.seqIters) / float64(unroll)
	comp := an.flopsPT + an.intOpsPT + 4*an.transcPT + accesses + loopOverhead

	loads := an.loadsPT
	stores := an.storesPT
	bytes := an.loadBytesPT + an.storeBytesPT

	var shmem int64
	var syncs float64
	if staging {
		for _, g := range an.groups {
			elem := g.array.Elem.Size()
			tileX := int64(shape[0]) + 2*g.radius[0]
			tileY := int64(1)
			if an.dims == 2 {
				tileY = int64(shape[1]) + 2*g.radius[1]
			}
			footprint := tileX * tileY
			shmem += footprint * elem

			fills := float64(footprint) / float64(bs) // coalesced fill loads per thread
			removed := g.loadsPT                      // global loads eliminated
			loads = loads - removed + fills
			bytes = bytes - removed*float64(elem) + fills*float64(elem)
			// Shared-memory reads replace the removed loads: cheap,
			// but they are instructions.
			comp += removed
			syncs += 1
		}
		if loads < 0 {
			loads = 0
		}
	}

	totalReqs := an.regularW + an.irregularW
	var txns float64 = 2
	if totalReqs > 0 {
		// Model view: irregular requests are priced as if a layout
		// transformation coalesced them into 2 transactions.
		txns = (an.txnsSumW + 2*an.irregularW) / totalReqs
	}
	if staging {
		// Fill loads are stride-1; staging strictly improves the mix
		// toward coalesced.
		txns = math.Min(txns, 2+0.5*(txns-2))
	}

	irregular := 0.0
	if totalReqs > 0 {
		irregular = (an.irregularW + 0.25*an.uniformW) / totalReqs
	}

	regs := 8 + 2*distinctArrays(an.k) + 2*(unroll-1)
	if staging {
		regs += 4
	}

	return Variant{
		Name:          name,
		BlockSize:     bs,
		BlockDims:     shape,
		SharedStaging: staging,
		Unroll:        unroll,
		Ch: perfmodel.Characteristics{
			Name:                   an.k.Name + ":" + name,
			Threads:                an.threads,
			BlockSize:              bs,
			CompInstsPerThread:     comp,
			GlobalLoadsPerThread:   loads,
			GlobalStoresPerThread:  stores,
			TransactionsPerRequest: txns,
			BytesPerThread:         bytes,
			RegsPerThread:          regs,
			SharedMemPerBlock:      shmem,
			SyncsPerThread:         syncs,
			IrregularFraction:      irregular,
		},
	}
}

func distinctArrays(k *skeleton.Kernel) int {
	seen := make(map[*skeleton.Array]bool)
	for _, ac := range k.Accesses() {
		seen[ac.Array] = true
	}
	return len(seen)
}

func absInt64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// StencilInfo describes the stencil structure of a kernel, for
// clients (like the temporal-fusion explorer) that need the reuse
// radius rather than the synthesized characteristics.
type StencilInfo struct {
	// Radius is the maximum constant offset along the block x/y
	// dimensions across all stencil-group loads.
	Radius [2]int64
	// Arrays is the number of arrays with stencil reuse.
	Arrays int
}

// Stencil analyzes the kernel's reuse structure. ok is false when the
// kernel has no stencil groups (no staging opportunity).
func Stencil(k *skeleton.Kernel, arch gpu.Arch) (StencilInfo, bool) {
	if err := k.Validate(); err != nil {
		return StencilInfo{}, false
	}
	if len(k.ParallelLoops()) == 0 {
		return StencilInfo{}, false
	}
	an := analyzeKernel(k, arch)
	if !an.stageable() {
		return StencilInfo{}, false
	}
	info := StencilInfo{Arrays: len(an.groups)}
	for _, g := range an.groups {
		if g.radius[0] > info.Radius[0] {
			info.Radius[0] = g.radius[0]
		}
		if g.radius[1] > info.Radius[1] {
			info.Radius[1] = g.radius[1]
		}
	}
	return info, true
}

// Best explores the kernel and returns the variant with the fastest
// analytical projection, together with that projection — GROPHECY's
// "best achievable performance and the transformations necessary to
// reach that performance".
func Best(k *skeleton.Kernel, arch gpu.Arch) (Variant, perfmodel.Projection, error) {
	return BestCtx(context.Background(), k, arch)
}

// BestCtx is Best under a "transform.best" trace span (when the
// context carries a tracer) recording how many variants the
// exploration considered.
//
// The winning variant's projection is memoized alongside the
// enumeration (cache.go), so a warm call skips both the exploration
// and the per-candidate analytical projection.
func BestCtx(ctx context.Context, k *skeleton.Kernel, arch gpu.Arch) (Variant, perfmodel.Projection, error) {
	_, span := trace.Start(ctx, "transform.best", trace.String("kernel", k.Name))
	defer span.End()
	e, err := cachedEntry(k, arch)
	if err != nil {
		return Variant{}, perfmodel.Projection{}, err
	}
	span.SetAttr(trace.Int("variants", int64(len(e.variants))))

	e.mu.Lock()
	if e.bestOK {
		v, proj := e.variants[e.bestIdx], e.best
		e.mu.Unlock()
		span.SetAttr(trace.String("variant", v.Name))
		return v, proj, nil
	}
	e.mu.Unlock()

	chars := make([]perfmodel.Characteristics, len(e.variants))
	for i, v := range e.variants {
		chars[i] = v.Ch
	}
	proj, idx, err := perfmodel.ProjectBest(arch, chars)
	if err != nil {
		return Variant{}, perfmodel.Projection{}, fmt.Errorf("transform: kernel %q: %w", k.Name, err)
	}
	e.mu.Lock()
	e.best, e.bestIdx, e.bestOK = proj, idx, true
	e.mu.Unlock()
	span.SetAttr(trace.String("variant", e.variants[idx].Name))
	return e.variants[idx], proj, nil
}
