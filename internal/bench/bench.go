// Package bench defines the paper's four benchmarks as code skeletons
// plus CPU baseline descriptions (paper §IV-B):
//
//   - CFD: an unstructured-grid finite-volume Euler solver (Rodinia);
//     three kernels per iteration, indirect neighbor accesses.
//   - HotSpot: a structured-grid ODE solver for chip temperature
//     (Rodinia); one 3x3-stencil kernel per iteration.
//   - SRAD: speckle-reducing anisotropic diffusion for ultrasound
//     imaging (Rodinia); two producer/consumer kernels per iteration.
//   - Stassuij: the sparse(132x132, real) x dense(132x2048, complex)
//     matrix product at the core of Green's Function Monte Carlo,
//     extracted from a DOE INCITE production code.
//
// Array inventories are chosen to match Table I's measured transfer
// sizes (e.g. HotSpot 1024x1024: 8 MB in, 4 MB out). Per-element
// instruction counts are the skeletons' "computational intensity";
// they are calibrated so the simulated Quadro FX 5600 reproduces the
// kernel-vs-transfer time balance of Table I (see EXPERIMENTS.md for
// the paper-vs-measured comparison).
package bench

import (
	"sync"

	"grophecy/internal/core"
	"grophecy/internal/cpumodel"
	"grophecy/internal/errdefs"
	"grophecy/internal/skeleton"
)

// CFDSizes lists the CFD data-set labels (number of grid elements).
func CFDSizes() []string { return []string{"97K", "193K", "233K"} }

var cfdElements = map[string]int64{
	// The Rodinia data files: fvcorr.domn.097K, fvcorr.domn.193K, and
	// missile.domn.0.2M.
	"97K":  97046,
	"193K": 193474,
	"233K": 232536,
}

// CFD builds the CFD workload for one data-set label.
func CFD(size string) (core.Workload, error) {
	n, ok := cfdElements[size]
	if !ok {
		return core.Workload{}, errdefs.Invalidf("bench: unknown CFD size %q (want one of %v)", size, CFDSizes())
	}

	// Input arrays (16 floats' worth per element -> 6.2 MB at 97K,
	// matching Table I's 6.3 MB):
	//   variables: 5 conserved quantities per element (also the
	//   output, 20 B/elem -> 1.9 MB at 97K);
	//   areas: 1 float per element;
	//   elements_surrounding: 4 neighbor indices per element;
	//   normals: 6 floats per element (face normals).
	variables := skeleton.NewArray("variables", skeleton.Float32, n, 5)
	areas := skeleton.NewArray("areas", skeleton.Float32, n)
	neighbors := skeleton.NewArray("elements_surrounding", skeleton.Int32, n, 4)
	normals := skeleton.NewArray("normals", skeleton.Float32, n, 6)
	stepFactors := skeleton.NewArray("step_factors", skeleton.Float32, n)
	fluxes := skeleton.NewArray("fluxes", skeleton.Float32, n, 5)
	stepFactors.Temporary = true
	fluxes.Temporary = true

	// Kernel 1: compute_step_factor — per-element CFL condition.
	k1 := &skeleton.Kernel{
		Name:  "compute_step_factor",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(variables, skeleton.Idx("i"), skeleton.IdxConst(0)),
				skeleton.LoadOf(variables, skeleton.Idx("i"), skeleton.IdxConst(1)),
				skeleton.LoadOf(variables, skeleton.Idx("i"), skeleton.IdxConst(2)),
				skeleton.LoadOf(variables, skeleton.Idx("i"), skeleton.IdxConst(3)),
				skeleton.LoadOf(variables, skeleton.Idx("i"), skeleton.IdxConst(4)),
				skeleton.LoadOf(areas, skeleton.Idx("i")),
				skeleton.StoreOf(stepFactors, skeleton.Idx("i")),
			},
			Flops:           25,
			IntOps:          10,
			Transcendentals: 3, // sqrt of speed of sound, divisions
		}},
	}

	// Kernel 2: compute_flux — gathers the four neighbors' conserved
	// variables through the connectivity array (irregular accesses)
	// and face normals, and accumulates fluxes.
	k2 := &skeleton.Kernel{
		Name:  "compute_flux",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.SeqLoop("j", 4)},
		Stmts: []skeleton.Statement{
			{
				// Per face: gather the neighbor's state through the
				// connectivity array (irregular) plus the face
				// normals, and accumulate the flux in registers.
				Accesses: []skeleton.Access{
					skeleton.LoadOf(neighbors, skeleton.Idx("i"), skeleton.Idx("j")),
					// Two normal components per face; the pair of
					// offsets covers all six columns across the face
					// loop.
					skeleton.LoadOf(normals, skeleton.Idx("i"), skeleton.Idx("j")),
					skeleton.LoadOf(normals, skeleton.Idx("i"), skeleton.IdxPlus("j", 2)),
					// Five conserved variables of a data-dependent
					// neighbor element.
					skeleton.LoadOf(variables, skeleton.IdxIrregular(), skeleton.IdxConst(0)),
					skeleton.LoadOf(variables, skeleton.IdxIrregular(), skeleton.IdxConst(1)),
					skeleton.LoadOf(variables, skeleton.IdxIrregular(), skeleton.IdxConst(2)),
					skeleton.LoadOf(variables, skeleton.IdxIrregular(), skeleton.IdxConst(3)),
					skeleton.LoadOf(variables, skeleton.IdxIrregular(), skeleton.IdxConst(4)),
				},
				Flops:           90,
				IntOps:          25,
				Transcendentals: 2, // sqrt in the flux contribution
			},
			{
				// After the face loop: write the accumulated fluxes.
				Accesses: []skeleton.Access{
					skeleton.StoreOf(fluxes, skeleton.Idx("i"), skeleton.IdxConst(0)),
					skeleton.StoreOf(fluxes, skeleton.Idx("i"), skeleton.IdxConst(1)),
					skeleton.StoreOf(fluxes, skeleton.Idx("i"), skeleton.IdxConst(2)),
					skeleton.StoreOf(fluxes, skeleton.Idx("i"), skeleton.IdxConst(3)),
					skeleton.StoreOf(fluxes, skeleton.Idx("i"), skeleton.IdxConst(4)),
				},
				Flops:  5,
				IntOps: 5,
				Depth:  1,
			},
		},
	}

	// Kernel 3: time_step — advances the conserved variables using
	// the step factors and accumulated fluxes.
	k3 := &skeleton.Kernel{
		Name:  "time_step",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.SeqLoop("v", 5)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(stepFactors, skeleton.Idx("i")),
				skeleton.LoadOf(fluxes, skeleton.Idx("i"), skeleton.Idx("v")),
				skeleton.LoadOf(variables, skeleton.Idx("i"), skeleton.Idx("v")),
				skeleton.StoreOf(variables, skeleton.Idx("i"), skeleton.Idx("v")),
			},
			Flops:  6,
			IntOps: 4,
		}},
	}

	return core.Workload{
		Name:     "CFD",
		DataSize: size,
		Seq: &skeleton.Sequence{
			Name:       "cfd-" + size,
			Kernels:    []*skeleton.Kernel{k1, k2, k3},
			Iterations: 1,
		},
		CPU: cpumodel.Workload{
			Name:                   "cfd-cpu-" + size,
			Elements:               n,
			FlopsPerElem:           520, // flux math across 4 faces
			BytesPerElem:           120, // gathers miss cache on the unstructured grid
			TranscendentalsPerElem: 11,
			IrregularFraction:      0.6,
			Vectorizable:           false,
			Regions:                3,
		},
	}, nil
}

// HotSpotSizes lists the HotSpot grid labels.
func HotSpotSizes() []string { return []string{"64 x 64", "512 x 512", "1024 x 1024"} }

var hotspotDims = map[string]int64{
	"64 x 64":     64,
	"512 x 512":   512,
	"1024 x 1024": 1024,
}

// HotSpot builds the HotSpot workload for one grid label.
func HotSpot(size string) (core.Workload, error) {
	n, ok := hotspotDims[size]
	if !ok {
		return core.Workload{}, errdefs.Invalidf("bench: unknown HotSpot size %q (want one of %v)", size, HotSpotSizes())
	}

	// Inputs: temperature grid + power grid (2 x 4 B/cell -> 8 MB at
	// 1024^2); output: updated temperature (4 MB at 1024^2).
	temp := skeleton.NewArray("temp", skeleton.Float32, n, n)
	power := skeleton.NewArray("power", skeleton.Float32, n, n)
	result := skeleton.NewArray("temp_out", skeleton.Float32, n, n)

	k := &skeleton.Kernel{
		Name:  "hotspot_stencil",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(temp, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(temp, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.LoadOf(temp, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.LoadOf(temp, skeleton.Idx("i"), skeleton.IdxPlus("j", -1)),
				skeleton.LoadOf(temp, skeleton.Idx("i"), skeleton.IdxPlus("j", 1)),
				skeleton.LoadOf(power, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.StoreOf(result, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			// Rodinia's kernel recomputes the Rosseland coefficients
			// and boundary guards per cell: heavy on address/guard
			// integer work, with several divisions.
			Flops:           30,
			IntOps:          95,
			Transcendentals: 8,
		}},
	}

	return core.Workload{
		Name:     "HotSpot",
		DataSize: size,
		Seq: &skeleton.Sequence{
			Name:       "hotspot-" + size,
			Kernels:    []*skeleton.Kernel{k},
			Iterations: 1,
		},
		CPU: cpumodel.Workload{
			Name:                   "hotspot-cpu-" + size,
			Elements:               n * n,
			FlopsPerElem:           30,
			BytesPerElem:           16,
			TranscendentalsPerElem: 4,
			Vectorizable:           false,
			Regions:                1,
		},
	}, nil
}

// SRADSizes lists the SRAD image labels.
func SRADSizes() []string { return []string{"1024 x 1024", "2048 x 2048", "4096 x 4096"} }

var sradDims = map[string]int64{
	"1024 x 1024": 1024,
	"2048 x 2048": 2048,
	"4096 x 4096": 4096,
}

// SRAD builds the SRAD workload for one image label.
func SRAD(size string) (core.Workload, error) {
	n, ok := sradDims[size]
	if !ok {
		return core.Workload{}, errdefs.Invalidf("bench: unknown SRAD size %q (want one of %v)", size, SRADSizes())
	}

	// Input and output: the image itself (4 B/pixel each way ->
	// 16 MB / 16 MB at 2048^2). Diffusion coefficients and the four
	// directional derivatives live only on the GPU (temporaries).
	image := skeleton.NewArray("image", skeleton.Float32, n, n)
	coeff := skeleton.NewArray("coeff", skeleton.Float32, n, n)
	deriv := skeleton.NewArray("deriv", skeleton.Float32, n, n)
	coeff.Temporary = true
	deriv.Temporary = true

	// Kernel 1: compute diffusion coefficients from the 4-neighbor
	// gradient and the global statistics.
	k1 := &skeleton.Kernel{
		Name:  "srad_prep",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(image, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(image, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.LoadOf(image, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.LoadOf(image, skeleton.Idx("i"), skeleton.IdxPlus("j", -1)),
				skeleton.LoadOf(image, skeleton.Idx("i"), skeleton.IdxPlus("j", 1)),
				skeleton.StoreOf(deriv, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.StoreOf(coeff, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops:           35,
			IntOps:          70,
			Transcendentals: 6, // divisions in the diffusion function
		}},
	}

	// Kernel 2: update the image from the neighbors' coefficients.
	k2 := &skeleton.Kernel{
		Name:  "srad_update",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(coeff, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(coeff, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.LoadOf(coeff, skeleton.Idx("i"), skeleton.IdxPlus("j", 1)),
				skeleton.LoadOf(deriv, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(image, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.StoreOf(image, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops:           25,
			IntOps:          60,
			Transcendentals: 3,
		}},
	}

	return core.Workload{
		Name:     "SRAD",
		DataSize: size,
		Seq: &skeleton.Sequence{
			Name:       "srad-" + size,
			Kernels:    []*skeleton.Kernel{k1, k2},
			Iterations: 1,
		},
		CPU: cpumodel.Workload{
			Name:                   "srad-cpu-" + size,
			Elements:               n * n,
			FlopsPerElem:           55,
			BytesPerElem:           24,
			TranscendentalsPerElem: 6,
			Vectorizable:           false,
			Regions:                2,
		},
	}, nil
}

// Stassuij builds the single-configuration Stassuij workload: the
// product of a 132x132 sparse real matrix (CSR, three vectors) with a
// 132x2048 dense complex matrix.
func Stassuij() core.Workload {
	const (
		rows = 132
		cols = 2048
		nnz  = 2100 // ~12% fill of the 132x132 operator
	)

	// Dense complex128 matrices: 132*2048*16 B = 4.1 MB each. The
	// input x and the accumulated y are uploaded (8.4 MB total with
	// the CSR vectors, matching Table I's 8.5 MB); y returns (4.1 MB,
	// matching 4.1 MB).
	x := skeleton.NewArray("x", skeleton.Complex128, rows, cols)
	y := skeleton.NewArray("y", skeleton.Complex128, rows, cols)
	vals := &skeleton.Array{Name: "csr_vals", Dims: []int64{nnz}, Elem: skeleton.Float64, Sparse: true}
	colIdx := &skeleton.Array{Name: "csr_cols", Dims: []int64{nnz}, Elem: skeleton.Int32, Sparse: true}
	rowPtr := &skeleton.Array{Name: "csr_rowptr", Dims: []int64{rows + 1}, Elem: skeleton.Int32, Sparse: true}

	// One thread per (row, column) output element; each walks the
	// row's ~16 nonzeros gathering x through the column indices.
	k := &skeleton.Kernel{
		Name:  "spmm",
		Loops: []skeleton.Loop{skeleton.ParLoop("r", rows), skeleton.ParLoop("c", cols), skeleton.SeqLoop("k", nnz/rows)},
		Stmts: []skeleton.Statement{
			{
				// Once per output element: read the row extent and
				// the accumulator, write the result back.
				Accesses: []skeleton.Access{
					skeleton.LoadOf(rowPtr, skeleton.Idx("r")),
					skeleton.LoadOf(y, skeleton.Idx("r"), skeleton.Idx("c")),
					skeleton.StoreOf(y, skeleton.Idx("r"), skeleton.Idx("c")),
				},
				Flops:  4,
				IntOps: 6,
				Depth:  2,
			},
			{
				// Per nonzero of the row: walk the CSR value/column
				// streams contiguously (affine index into a sparse
				// array: conservative for transfers, coalesced for
				// the kernel model) and gather the dense matrix row
				// through the column index (warp-uniform gather).
				Accesses: []skeleton.Access{
					skeleton.LoadOf(vals, skeleton.Idx("k")),
					skeleton.LoadOf(colIdx, skeleton.Idx("k")),
					skeleton.LoadOf(x, skeleton.IdxIrregular(), skeleton.Idx("c")),
				},
				// complex128 multiply-accumulate with a real scalar:
				// done in double precision, which the G80 emulates
				// slowly; modeled as extra transcendental-class ops.
				Flops:           12,
				IntOps:          8,
				Transcendentals: 3,
			},
		},
	}

	return core.Workload{
		Name:     "Stassuij",
		DataSize: "132x132 x 132x2048",
		Seq: &skeleton.Sequence{
			Name:       "stassuij",
			Kernels:    []*skeleton.Kernel{k},
			Iterations: 1,
		},
		CPU: cpumodel.Workload{
			Name:                   "stassuij-cpu",
			Elements:               rows * cols,
			FlopsPerElem:           130,
			BytesPerElem:           32,
			TranscendentalsPerElem: 0,
			IrregularFraction:      0.3,
			Vectorizable:           false,
			Regions:                1,
		},
	}
}

// shared holds every application/data-size pair of the paper's
// evaluation, keyed by name and label (Stassuij's label is empty).
// Each is built on its first lookup and then shared: building one is
// a fixed cost a batch job would otherwise pay on every request.
// Members never fail to build.
var shared = func() map[[2]string]func() (core.Workload, error) {
	m := make(map[[2]string]func() (core.Workload, error), 10)
	add := func(name string, sizes []string, build func(string) (core.Workload, error)) {
		for _, s := range sizes {
			m[[2]string{name, s}] = sync.OnceValues(func() (core.Workload, error) { return build(s) })
		}
	}
	add("CFD", CFDSizes(), CFD)
	add("HotSpot", HotSpotSizes(), HotSpot)
	add("SRAD", SRADSizes(), SRAD)
	add("Stassuij", []string{""}, func(string) (core.Workload, error) { return Stassuij(), nil })
	return m
}()

// Named returns one of the paper's workloads by application name and
// data-set label, as a batch job names it. The workload is built once
// per process and shared by every caller, so it is read-only: derive
// a variant with WithIterations, which copies the sequence. An
// unknown name or label is an invalid-input error, and nothing is
// cached for it.
func Named(name, size string) (core.Workload, error) {
	if build, ok := shared[[2]string{name, size}]; ok {
		return build()
	}
	// The pair is outside the table, so each constructor below fails
	// on its label check before building anything.
	switch name {
	case "CFD":
		return CFD(size)
	case "HotSpot":
		return HotSpot(size)
	case "SRAD":
		return SRAD(size)
	case "Stassuij":
		return core.Workload{}, errdefs.Invalidf("bench: Stassuij has a single data set; drop size %q", size)
	default:
		return core.Workload{}, errdefs.Invalidf(
			"bench: unknown workload %q (want CFD, HotSpot, SRAD, or Stassuij)", name)
	}
}

// All returns every application/data-size combination of the paper's
// evaluation, in Table I order.
func All() ([]core.Workload, error) {
	var out []core.Workload
	for _, s := range CFDSizes() {
		w, err := CFD(s)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	for _, s := range HotSpotSizes() {
		w, err := HotSpot(s)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	for _, s := range SRADSizes() {
		w, err := SRAD(s)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	out = append(out, Stassuij())
	return out, nil
}

// MustAll is All for known-good configurations; it panics on error.
func MustAll() []core.Workload {
	ws, err := All()
	if err != nil {
		panic(err)
	}
	return ws
}
