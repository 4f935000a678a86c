package datausage

import (
	"strings"
	"testing"

	"grophecy/internal/brs"
	"grophecy/internal/skeleton"
)

// vecAddSeq builds c = a + b over n elements.
func vecAddSeq(n int64) (*skeleton.Sequence, *skeleton.Array, *skeleton.Array, *skeleton.Array) {
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
	seq := &skeleton.Sequence{Name: "vecadd", Kernels: []*skeleton.Kernel{k}, Iterations: 1}
	return seq, a, b, c
}

func TestTransferDirString(t *testing.T) {
	if Upload.String() != "upload" || Download.String() != "download" {
		t.Error("TransferDir strings wrong")
	}
	if !strings.Contains(TransferDir(9).String(), "9") {
		t.Error("fallback string wrong")
	}
}

func TestVectorAddPlan(t *testing.T) {
	seq, a, b, c := vecAddSeq(1000)
	plan, err := Analyze(seq, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Uploads) != 2 {
		t.Fatalf("uploads = %v", plan.Uploads)
	}
	if plan.Uploads[0].Array() != a || plan.Uploads[1].Array() != b {
		t.Errorf("upload arrays wrong: %v", plan.Uploads)
	}
	if len(plan.Downloads) != 1 || plan.Downloads[0].Array() != c {
		t.Fatalf("downloads = %v", plan.Downloads)
	}
	if plan.UploadBytes() != 2*1000*4 || plan.DownloadBytes() != 1000*4 {
		t.Errorf("bytes = %d up, %d down", plan.UploadBytes(), plan.DownloadBytes())
	}
	if plan.TotalBytes() != 3*1000*4 {
		t.Errorf("TotalBytes = %d", plan.TotalBytes())
	}
	if plan.TransferCount() != 3 {
		t.Errorf("TransferCount = %d", plan.TransferCount())
	}
	if plan.ResidentBytes != 3*1000*4 {
		t.Errorf("ResidentBytes = %d", plan.ResidentBytes)
	}
}

func TestProducerConsumerNoUploadOfIntermediate(t *testing.T) {
	// Kernel 1 writes coeff from img; kernel 2 reads coeff and img,
	// writes img. Mirrors SRAD's two kernels (§IV-B).
	n := int64(256)
	img := skeleton.NewArray("img", skeleton.Float32, n, n)
	coeff := skeleton.NewArray("coeff", skeleton.Float32, n, n)
	coeff.Temporary = true

	k1 := &skeleton.Kernel{
		Name:  "prep",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(img, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.StoreOf(coeff, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops: 8,
		}},
	}
	k2 := &skeleton.Kernel{
		Name:  "update",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.ParLoop("j", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(coeff, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(img, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.StoreOf(img, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops: 6,
		}},
	}
	seq := &skeleton.Sequence{Name: "srad-like", Kernels: []*skeleton.Kernel{k1, k2}, Iterations: 1}
	plan, err := Analyze(seq, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	// img uploaded once; coeff produced on-GPU, never uploaded.
	if len(plan.Uploads) != 1 || plan.Uploads[0].Array() != img {
		t.Fatalf("uploads = %v", plan.Uploads)
	}
	// coeff is temporary: only img comes back.
	if len(plan.Downloads) != 1 || plan.Downloads[0].Array() != img {
		t.Fatalf("downloads = %v", plan.Downloads)
	}
	// Both arrays occupy GPU memory.
	if plan.ResidentBytes != 2*n*n*4 {
		t.Errorf("ResidentBytes = %d", plan.ResidentBytes)
	}
}

func TestTemporaryHintOverride(t *testing.T) {
	seq, _, _, c := vecAddSeq(100)
	plan, err := Analyze(seq, Hints{Temporaries: map[*skeleton.Array]bool{c: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Downloads) != 0 {
		t.Fatalf("hinted temporary still downloaded: %v", plan.Downloads)
	}
}

func TestWrittenThenReadNotUploaded(t *testing.T) {
	// Kernel writes x entirely, then a second kernel reads x: no
	// upload needed at all.
	n := int64(128)
	x := skeleton.NewArray("x", skeleton.Float32, n)
	y := skeleton.NewArray("y", skeleton.Float32, n)
	k1 := &skeleton.Kernel{
		Name:  "init",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{skeleton.StoreOf(x, skeleton.Idx("i"))},
			Flops:    1,
		}},
	}
	k2 := &skeleton.Kernel{
		Name:  "use",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(x, skeleton.Idx("i")),
				skeleton.StoreOf(y, skeleton.Idx("i")),
			},
			Flops: 1,
		}},
	}
	seq := &skeleton.Sequence{Name: "chain", Kernels: []*skeleton.Kernel{k1, k2}, Iterations: 1}
	plan, err := Analyze(seq, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Uploads) != 0 {
		t.Fatalf("uploads = %v, want none", plan.Uploads)
	}
	if len(plan.Downloads) != 2 { // x and y both written, neither temporary
		t.Fatalf("downloads = %v, want x and y", plan.Downloads)
	}
}

func TestReadThenWriteSameArrayUploadsAndDownloads(t *testing.T) {
	// In-place update img = f(img): the read happens before the
	// write, so the array must be uploaded AND downloaded.
	n := int64(64)
	img := skeleton.NewArray("img", skeleton.Float32, n)
	k := &skeleton.Kernel{
		Name:  "inplace",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(img, skeleton.Idx("i")),
				skeleton.StoreOf(img, skeleton.Idx("i")),
			},
			Flops: 1,
		}},
	}
	seq := &skeleton.Sequence{Name: "inplace", Kernels: []*skeleton.Kernel{k}, Iterations: 1}
	plan := MustAnalyze(seq, Hints{})
	if len(plan.Uploads) != 1 || plan.Uploads[0].Array() != img {
		t.Fatalf("uploads = %v", plan.Uploads)
	}
	if len(plan.Downloads) != 1 || plan.Downloads[0].Array() != img {
		t.Fatalf("downloads = %v", plan.Downloads)
	}
}

func TestStencilHaloSingleUpload(t *testing.T) {
	// A 5-point stencil reads in[i±1][j±1]; all five sections merge
	// into ONE upload of the in array (arrays transfer separately and
	// once).
	n := int64(64)
	in := skeleton.NewArray("in", skeleton.Float32, n, n)
	out := skeleton.NewArray("out", skeleton.Float32, n, n)
	k := &skeleton.Kernel{
		Name:  "stencil",
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
			Flops: 10,
		}},
	}
	seq := &skeleton.Sequence{Name: "hotspot-like", Kernels: []*skeleton.Kernel{k}, Iterations: 1}
	plan := MustAnalyze(seq, Hints{})
	if len(plan.Uploads) != 1 {
		t.Fatalf("uploads = %v, want single merged upload", plan.Uploads)
	}
	if plan.Uploads[0].Bytes() != n*n*4 {
		t.Errorf("upload bytes = %d, want whole array", plan.Uploads[0].Bytes())
	}
}

func TestIrregularAccessConservativeWholeArray(t *testing.T) {
	// y[i] += vals[j] * x[col[j]]: the x access is irregular, so all
	// of x is transferred (paper's sparse rule).
	nnz, n := int64(500), int64(1000)
	vals := skeleton.NewArray("vals", skeleton.Float32, nnz)
	col := skeleton.NewArray("col", skeleton.Int32, nnz)
	x := skeleton.NewArray("x", skeleton.Float32, n)
	y := skeleton.NewArray("y", skeleton.Float32, n)
	k := &skeleton.Kernel{
		Name:  "spmv",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n), skeleton.SeqLoop("j", nnz)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(vals, skeleton.Idx("j")),
				skeleton.LoadOf(col, skeleton.Idx("j")),
				skeleton.LoadOf(x, skeleton.IdxIrregular()),
				skeleton.StoreOf(y, skeleton.Idx("i")),
			},
			Flops: 2,
		}},
	}
	seq := &skeleton.Sequence{Name: "spmv", Kernels: []*skeleton.Kernel{k}, Iterations: 1}
	plan := MustAnalyze(seq, Hints{})
	if len(plan.Uploads) != 3 {
		t.Fatalf("uploads = %v", plan.Uploads)
	}
	var xUp *Transfer
	for i := range plan.Uploads {
		if plan.Uploads[i].Array() == x {
			xUp = &plan.Uploads[i]
		}
	}
	if xUp == nil {
		t.Fatal("x not uploaded")
	}
	if !xUp.Section.Whole {
		t.Error("irregularly-read x should be whole-array")
	}
	if xUp.Bytes() != n*4 {
		t.Errorf("x upload bytes = %d", xUp.Bytes())
	}
}

func TestSparseSectionHintBoundsTransfer(t *testing.T) {
	n := int64(1000)
	x := skeleton.NewArray("x", skeleton.Float32, n)
	y := skeleton.NewArray("y", skeleton.Float32, n)
	k := &skeleton.Kernel{
		Name:  "gather",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(x, skeleton.IdxIrregular()),
				skeleton.StoreOf(y, skeleton.Idx("i")),
			},
			Flops: 1,
		}},
	}
	seq := &skeleton.Sequence{Name: "gather", Kernels: []*skeleton.Kernel{k}, Iterations: 1}
	hinted := brs.Section{Array: x, Bounds: []brs.Bound{{Lo: 0, Hi: 99, Stride: 1}}}
	plan, err := Analyze(seq, Hints{SparseSections: map[*skeleton.Array]brs.Section{x: hinted}})
	if err != nil {
		t.Fatal(err)
	}
	var xBytes int64
	for _, up := range plan.Uploads {
		if up.Array() == x {
			xBytes = up.Bytes()
		}
	}
	if xBytes != 100*4 {
		t.Errorf("hinted x upload = %d bytes, want 400", xBytes)
	}
}

func TestSparseHintValidation(t *testing.T) {
	seq, a, b, _ := vecAddSeq(10)
	// Hint keyed by a but carrying a section of b: rejected.
	badHint := Hints{SparseSections: map[*skeleton.Array]brs.Section{a: brs.WholeArray(b)}}
	if _, err := Analyze(seq, badHint); err == nil {
		t.Error("mismatched sparse hint accepted")
	}
	// Structurally invalid hint section: rejected.
	invalid := Hints{SparseSections: map[*skeleton.Array]brs.Section{
		a: {Array: a, Bounds: []brs.Bound{{Lo: 0, Hi: 3, Stride: 0}}},
	}}
	if _, err := Analyze(seq, invalid); err == nil {
		t.Error("invalid sparse hint accepted")
	}
}

func TestAnalyzeRejectsInvalidSequence(t *testing.T) {
	if _, err := Analyze(&skeleton.Sequence{Name: "empty", Iterations: 1}, Hints{}); err == nil {
		t.Error("invalid sequence accepted")
	}
}

func TestMustAnalyzePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAnalyze did not panic on invalid sequence")
		}
	}()
	MustAnalyze(&skeleton.Sequence{Name: "empty", Iterations: 1}, Hints{})
}

func TestPlanIndependentOfIterationCount(t *testing.T) {
	seq, _, _, _ := vecAddSeq(100)
	p1 := MustAnalyze(seq, Hints{})
	p50 := MustAnalyze(seq.WithIterations(50), Hints{})
	if p1.TotalBytes() != p50.TotalBytes() || p1.TransferCount() != p50.TransferCount() {
		t.Error("plan should be independent of iteration count (paper §IV-B)")
	}
}

func TestPlanString(t *testing.T) {
	seq, _, _, _ := vecAddSeq(100)
	s := MustAnalyze(seq, Hints{}).String()
	for _, want := range []string{"2 uploads", "1 downloads", "upload a[0:99]", "download c[0:99]"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
}

func TestDeterministicOrder(t *testing.T) {
	// Arrays sorted by name within direction, regardless of access order.
	n := int64(10)
	z := skeleton.NewArray("z", skeleton.Float32, n)
	a := skeleton.NewArray("a", skeleton.Float32, n)
	out := skeleton.NewArray("out", skeleton.Float32, n)
	k := &skeleton.Kernel{
		Name:  "k",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", n)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(z, skeleton.Idx("i")),
				skeleton.LoadOf(a, skeleton.Idx("i")),
				skeleton.StoreOf(out, skeleton.Idx("i")),
			},
			Flops: 1,
		}},
	}
	seq := &skeleton.Sequence{Name: "s", Kernels: []*skeleton.Kernel{k}, Iterations: 1}
	plan := MustAnalyze(seq, Hints{})
	if plan.Uploads[0].Array() != a || plan.Uploads[1].Array() != z {
		t.Errorf("uploads not name-sorted: %v", plan.Uploads)
	}
}
