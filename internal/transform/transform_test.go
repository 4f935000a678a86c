package transform

import (
	"context"
	"strings"
	"testing"

	"grophecy/internal/gpu"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
)

// stencilKernel builds a HotSpot-like 5-point stencil.
func stencilKernel(n int64) *skeleton.Kernel {
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	power := skeleton.NewArray("power", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	return &skeleton.Kernel{
		Name:  "stencil",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.IdxPlus("j", -1)),
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.IdxPlus("j", 1)),
				skeleton.LoadOf(power, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops:           12,
			Transcendentals: 1,
		}},
	}
}

// irregularKernel builds a CFD-like kernel with indirect neighbor loads.
func irregularKernel(n int64) *skeleton.Kernel {
	vars := skeleton.NewArray("variables", skeleton.Float32, n)
	nb := skeleton.NewArray("neighbors", skeleton.Int32, n)
	out := skeleton.NewArray("fluxes", skeleton.Float32, n)
	return &skeleton.Kernel{
		Name:  "flux",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(nb, skeleton.Idx("i")),
				skeleton.LoadOf(vars, skeleton.IdxIrregular()),
				skeleton.LoadOf(vars, skeleton.Idx("i")),
				skeleton.StoreOf(out, skeleton.Idx("i")),
			},
			Flops: 40,
		}},
	}
}

func TestEnumerateProducesLaunchableVariants(t *testing.T) {
	arch := gpu.QuadroFX5600()
	variants, err := Enumerate(stencilKernel(1024), arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) == 0 {
		t.Fatal("no variants")
	}
	for _, v := range variants {
		if err := v.Ch.Validate(); err != nil {
			t.Errorf("%s: invalid characteristics: %v", v.Name, err)
		}
		if v.Ch.Threads != 1024*1024 {
			t.Errorf("%s: threads = %d", v.Name, v.Ch.Threads)
		}
		if v.BlockSize > arch.MaxThreadsPerBlock {
			t.Errorf("%s: block size %d exceeds limit", v.Name, v.BlockSize)
		}
		if v.BlockDims[0]*v.BlockDims[1] != v.BlockSize {
			t.Errorf("%s: block dims %v inconsistent with size %d", v.Name, v.BlockDims, v.BlockSize)
		}
	}
}

func TestEnumerateIncludesTiledVariantsForStencil(t *testing.T) {
	variants, err := Enumerate(stencilKernel(1024), gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	tiled, plain := 0, 0
	for _, v := range variants {
		if v.SharedStaging {
			tiled++
			if v.Ch.SharedMemPerBlock == 0 {
				t.Errorf("%s: tiled variant has no shared memory", v.Name)
			}
			if v.Ch.SyncsPerThread == 0 {
				t.Errorf("%s: tiled variant has no syncs", v.Name)
			}
			if !strings.Contains(v.Name, "tiled") {
				t.Errorf("tiled variant name %q lacks marker", v.Name)
			}
		} else {
			plain++
		}
	}
	if tiled == 0 || plain == 0 {
		t.Errorf("want both tiled (%d) and plain (%d) variants", tiled, plain)
	}
}

func TestTilingReducesGlobalLoads(t *testing.T) {
	variants, err := Enumerate(stencilKernel(1024), gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	var tiled, plain *Variant
	for i := range variants {
		v := &variants[i]
		if v.BlockSize != 256 || v.Unroll != 1 {
			continue
		}
		if v.SharedStaging {
			tiled = v
		} else {
			plain = v
		}
	}
	if tiled == nil || plain == nil {
		t.Fatal("missing bs256 variants")
	}
	if tiled.Ch.GlobalLoadsPerThread >= plain.Ch.GlobalLoadsPerThread {
		t.Errorf("tiling did not reduce loads: %v vs %v",
			tiled.Ch.GlobalLoadsPerThread, plain.Ch.GlobalLoadsPerThread)
	}
	if tiled.Ch.BytesPerThread >= plain.Ch.BytesPerThread {
		t.Errorf("tiling did not reduce traffic: %v vs %v",
			tiled.Ch.BytesPerThread, plain.Ch.BytesPerThread)
	}
}

func TestNoTiledVariantsWithoutReuse(t *testing.T) {
	// Vector addition has no reuse, so no staging variants.
	n := int64(1 << 20)
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
			Flops: 1,
		}},
	}
	variants, err := Enumerate(k, gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if v.SharedStaging {
			t.Errorf("staging variant %q for reuse-free kernel", v.Name)
		}
	}
}

func TestIrregularFractionRecorded(t *testing.T) {
	variants, err := Enumerate(irregularKernel(100000), gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if v.Ch.IrregularFraction <= 0 || v.Ch.IrregularFraction >= 1 {
			t.Errorf("%s: irregular fraction = %v, want in (0,1)", v.Name, v.Ch.IrregularFraction)
		}
	}
}

func TestCoalescedAccessGetsMinimalTransactions(t *testing.T) {
	// Row-major [i][j] with j innermost: stride 1, float32 -> 2
	// transactions per warp request on G80.
	variants, err := Enumerate(stencilKernel(1024), gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if v.SharedStaging {
			continue
		}
		if v.Ch.TransactionsPerRequest < 1 || v.Ch.TransactionsPerRequest > 4 {
			t.Errorf("%s: transactions = %v for coalesced stencil", v.Name, v.Ch.TransactionsPerRequest)
		}
	}
}

func TestTransposedAccessCostsMoreTransactions(t *testing.T) {
	n := int64(1024)
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	k := &skeleton.Kernel{
		Name:  "transpose",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				// Column-major read: j hits the slow dimension.
				skeleton.LoadOf(in, skeleton.Idx("j"), skeleton.Idx("i")),
				skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops: 1,
		}},
	}
	variants, err := Enumerate(k, gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if v.Ch.TransactionsPerRequest <= 2 {
			t.Errorf("%s: transactions = %v, transposed read should cost more",
				v.Name, v.Ch.TransactionsPerRequest)
		}
	}
}

func TestUnrollReducesCompInsts(t *testing.T) {
	n := int64(1 << 16)
	a := skeleton.NewArray("a", skeleton.Float32, n, 64)
	o := skeleton.NewArray("o", skeleton.Float32, n)
	k := &skeleton.Kernel{
		Name:  "reduce",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.SeqLoop("s", 64)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(a, skeleton.Idx("i"), skeleton.Idx("s")),
				skeleton.StoreOf(o, skeleton.Idx("i")),
			},
			Flops: 2,
		}},
	}
	variants, err := Enumerate(k, gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	var u1, u4 *Variant
	for i := range variants {
		v := &variants[i]
		if v.BlockSize != 256 {
			continue
		}
		switch v.Unroll {
		case 1:
			u1 = v
		case 4:
			u4 = v
		}
	}
	if u1 == nil || u4 == nil {
		t.Fatal("missing unroll variants")
	}
	if u4.Ch.CompInstsPerThread >= u1.Ch.CompInstsPerThread {
		t.Errorf("unroll4 (%v insts) not cheaper than unroll1 (%v)",
			u4.Ch.CompInstsPerThread, u1.Ch.CompInstsPerThread)
	}
}

func TestNoUnrollVariantsWithoutSequentialLoop(t *testing.T) {
	variants, err := Enumerate(stencilKernel(256), gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if v.Unroll > 1 {
			t.Errorf("unroll variant %q for kernel with no sequential loops", v.Name)
		}
	}
}

func TestEnumerateErrors(t *testing.T) {
	arch := gpu.QuadroFX5600()
	if _, err := Enumerate(&skeleton.Kernel{Name: "bad"}, arch); err == nil {
		t.Error("invalid kernel accepted")
	}
	// All-sequential kernel: no parallel loops.
	a := skeleton.NewArray("a", skeleton.Float32, 8)
	seqOnly := &skeleton.Kernel{
		Name:  "seq",
		Loops: []skeleton.Loop{skeleton.SeqLoop("s", 8)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{skeleton.LoadOf(a, skeleton.Idx("s"))},
			Flops:    1,
		}},
	}
	if _, err := Enumerate(seqOnly, arch); err == nil {
		t.Error("sequential-only kernel accepted")
	}
	if _, err := Enumerate(stencilKernel(64), gpu.Arch{}); err == nil {
		t.Error("invalid arch accepted")
	}
}

func TestBestPicksFastestVariant(t *testing.T) {
	arch := gpu.QuadroFX5600()
	k := stencilKernel(1024)
	best, proj, err := Best(context.Background(), k, arch)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Time <= 0 {
		t.Errorf("projection time = %v", proj.Time)
	}
	// Exhaustively verify no variant projects faster.
	variants, err := Enumerate(k, arch)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		p, err := perfmodel.Project(arch, v.Ch)
		if err != nil {
			continue
		}
		if p.Time < proj.Time-1e-15 {
			t.Errorf("variant %s (%v) beats Best %s (%v)", v.Name, p.Time, best.Name, proj.Time)
		}
	}
}

func TestBestVariantNamesAreStable(t *testing.T) {
	arch := gpu.QuadroFX5600()
	b1, _, err := Best(context.Background(), stencilKernel(1024), arch)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := Best(context.Background(), stencilKernel(1024), arch)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Name != b2.Name {
		t.Errorf("Best unstable: %q vs %q", b1.Name, b2.Name)
	}
}

func TestDeterministicEnumerationOrder(t *testing.T) {
	a, err := Enumerate(stencilKernel(512), gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(stencilKernel(512), gpu.QuadroFX5600())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("variant count unstable")
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("order unstable at %d: %q vs %q", i, a[i].Name, b[i].Name)
		}
	}
}

func TestThreeParallelLoopKernel(t *testing.T) {
	// A 3D grid kernel: all three parallel loops map to the grid,
	// the last two to the block shape; the explorer must handle it.
	nx, ny, nz := int64(64), int64(64), int64(32)
	in := skeleton.NewArray("in", skeleton.Float32, nz, ny, nx)
	out := skeleton.NewArray("out", skeleton.Float32, nz, ny, nx)
	k := &skeleton.Kernel{
		Name: "grid3d",
		Loops: []skeleton.Loop{
			skeleton.ParLoop("z", nz), skeleton.ParLoop("y", ny), skeleton.ParLoop("x", nx),
		},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(in, skeleton.Idx("z"), skeleton.Idx("y"), skeleton.Idx("x")),
				skeleton.StoreOf(out, skeleton.Idx("z"), skeleton.Idx("y"), skeleton.Idx("x")),
			},
			Flops: 4,
		}},
	}
	arch := gpu.QuadroFX5600()
	variants, err := Enumerate(k, arch)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		if v.Ch.Threads != nx*ny*nz {
			t.Errorf("%s: threads = %d, want %d", v.Name, v.Ch.Threads, nx*ny*nz)
		}
		// x is the thread-x var with unit stride: coalesced.
		if v.SharedStaging {
			continue
		}
		if v.Ch.TransactionsPerRequest > 2 {
			t.Errorf("%s: 3D unit-stride kernel got %v txns", v.Name, v.Ch.TransactionsPerRequest)
		}
	}
	if _, _, err := Best(context.Background(), k, arch); err != nil {
		t.Fatal(err)
	}
}

func TestStencilHelperRejectsInvalid(t *testing.T) {
	arch := gpu.QuadroFX5600()
	if _, ok := Stencil(&skeleton.Kernel{Name: "bad"}, arch); ok {
		t.Error("invalid kernel reported as stencil")
	}
	a := skeleton.NewArray("a", skeleton.Float32, 8)
	seqOnly := &skeleton.Kernel{
		Name:  "seq",
		Loops: []skeleton.Loop{skeleton.SeqLoop("s", 8)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{skeleton.LoadOf(a, skeleton.Idx("s"))},
			Flops:    1,
		}},
	}
	if _, ok := Stencil(seqOnly, arch); ok {
		t.Error("sequential-only kernel reported as stencil")
	}
}
