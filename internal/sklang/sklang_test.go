package sklang

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"grophecy/internal/core"
	"grophecy/internal/datausage"
	"grophecy/internal/skeleton"
)

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`workload "A B" size "x" # comment
array a[16] float32 2*i .. ? { } [ ] = + - 3.5`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokenKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.Kind
	}
	want := []tokenKind{
		tokIdent, tokString, tokIdent, tokString,
		tokIdent, tokIdent, tokLBracket, tokInt, tokRBracket, tokIdent,
		tokInt, tokStar, tokIdent, tokDotDot, tokQuestion,
		tokLBrace, tokRBrace, tokLBracket, tokRBracket, tokAssign,
		tokPlus, tokMinus, tokFloat, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[1].Text != "A B" {
		t.Errorf("string text = %q", toks[1].Text)
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (pos{1, 1}) || toks[1].Pos != (pos{2, 3}) {
		t.Errorf("positions = %v, %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestLexerErrors(t *testing.T) {
	cases := []string{
		"@",
		`"unterminated`,
		"\"newline\nin string\"",
		"a . b", // lone dot
	}
	for _, src := range cases {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) accepted", src)
		}
	}
}

func TestLexerRangeAfterInt(t *testing.T) {
	// "0..16" must lex as INT DOTDOT INT, not a float.
	toks, err := lexAll("0..16")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != tokInt || toks[1].Kind != tokDotDot || toks[2].Kind != tokInt {
		t.Errorf("tokens = %v", toks)
	}
}

func parseBlur(t *testing.T) core.Workload {
	t.Helper()
	w, err := ParseFile(filepath.Join("testdata", "blur.sk"))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestParseBlurFile(t *testing.T) {
	w := parseBlur(t)
	if w.Name != "Blur" || w.DataSize != "2048 x 2048" {
		t.Errorf("header = %q %q", w.Name, w.DataSize)
	}
	if len(w.Seq.Kernels) != 1 || w.Seq.Iterations != 1 {
		t.Fatalf("sequence = %+v", w.Seq)
	}
	k := w.Seq.Kernels[0]
	if k.Name != "blur5" {
		t.Errorf("kernel name = %q", k.Name)
	}
	if len(k.Loops) != 2 || !k.Loops[0].Parallel || !k.Loops[1].Parallel {
		t.Errorf("loops = %+v", k.Loops)
	}
	if len(k.Stmts) != 1 || len(k.Stmts[0].Accesses) != 6 {
		t.Fatalf("stmts = %+v", k.Stmts)
	}
	if k.Stmts[0].Flops != 5 || k.Stmts[0].IntOps != 12 {
		t.Errorf("attrs = %+v", k.Stmts[0])
	}
	if w.CPU.Elements != 4194304 || !w.CPU.Vectorizable {
		t.Errorf("cpu = %+v", w.CPU)
	}
	// Halo access parsed correctly.
	halo := k.Stmts[0].Accesses[1]
	if halo.Index[0].Coeff("i") != 1 || halo.Index[0].Const != -1 {
		t.Errorf("halo index = %+v", halo.Index[0])
	}
}

func TestParsedBlurEvaluatesEndToEnd(t *testing.T) {
	w := parseBlur(t)
	p, err := core.New(context.Background(), core.NewMachine(5), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Evaluate(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasTotalGPU() <= 0 || rep.MeasuredSpeedup() <= 0 {
		t.Errorf("report = %+v", rep)
	}
	// One upload (in), one download (out), 16MB each.
	if rep.Plan.UploadBytes() != 4*2048*2048 || rep.Plan.DownloadBytes() != 4*2048*2048 {
		t.Errorf("plan = %+v", rep.Plan)
	}
}

func TestParseSpMMFileFullFeatures(t *testing.T) {
	w, err := ParseFile(filepath.Join("testdata", "spmm.sk"))
	if err != nil {
		t.Fatal(err)
	}
	if w.Seq.Iterations != 4 {
		t.Errorf("iterations = %d", w.Seq.Iterations)
	}
	k := w.Seq.Kernels[0]
	if len(k.Loops) != 3 {
		t.Fatalf("loops = %+v", k.Loops)
	}
	if k.Loops[2].Parallel || k.Loops[2].Step != 2 || k.Loops[2].Upper != 14 {
		t.Errorf("seq loop = %+v", k.Loops[2])
	}
	if len(k.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(k.Stmts))
	}
	// First statement hoisted above the k loop: depth 2.
	if k.Stmts[0].Depth != 2 {
		t.Errorf("hoisted stmt depth = %d, want 2", k.Stmts[0].Depth)
	}
	if k.Stmts[1].Depth != 3 {
		t.Errorf("inner stmt depth = %d, want 3", k.Stmts[1].Depth)
	}
	if got := k.ExecsPerThread(k.Stmts[0]); got != 1 {
		t.Errorf("hoisted execs = %d", got)
	}
	if got := k.ExecsPerThread(k.Stmts[1]); got != 7 { // ceil(14/2)
		t.Errorf("inner execs = %d", got)
	}
	// Irregular and multi-term indices.
	inner := k.Stmts[1].Accesses
	if !inner[2].IrregularIndex() {
		t.Error("x[?][c] not irregular")
	}
	if inner[3].Index[1].Coeff("c") != 2 || inner[3].Index[1].Const != -1 {
		t.Errorf("2*c-1 parsed as %+v", inner[3].Index[1])
	}
	// Sparse arrays remain conservative for transfers.
	plan := datausage.MustAnalyze(w.Seq, w.Hints)
	for _, up := range plan.Uploads {
		if up.Array().Name == "vals" && !up.Section.Whole {
			t.Error("sparse vals not whole-array")
		}
	}
	// Temporary array is not downloaded.
	for _, down := range plan.Downloads {
		if down.Array().Name == "scratch" {
			t.Error("temporary scratch downloaded")
		}
	}
}

func TestParseMinimalInline(t *testing.T) {
	w, err := Parse(`
workload "W" size "s"
array a[64] float32
kernel k { parfor i in 0..64 { stmt flops=1 { load a[i] store a[i] } } }
sequence { k }
cpu elements=64 flops=1 bytes=8 regions=1
`)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "W" || len(w.Seq.Kernels) != 1 {
		t.Errorf("workload = %+v", w)
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		src     string
		wantMsg string
	}{
		{`workload "W"`, `expected "size"`},
		{`bogus`, "unknown declaration"},
		{`workload "W" size "s" workload "X" size "y"`, "duplicate workload"},
		{`array a float32`, "at least one dimension"},
		{`array a[4] nosuchtype`, "unknown element type"},
		{`array a[4] float32 array a[4] float32`, "already declared"},
		{`array a[4] float32
kernel k { parfor i in 0..4 { stmt flops=1 { load b[i] } } }`, `undeclared array "b"`},
		{`array a[4] float32
kernel k { parfor i in 0..4 { stmt flops=1 { load a[i][i] } } }`, "has 1 dimensions"},
		{`array a[4] float32
kernel k { parfor i in 0..4 { stmt flops=1 { load a[q] } } }`, "unknown loop variable"},
		{`array a[4] float32
kernel k { stmt flops=1 { load a[0] } }`, "statements must appear inside a loop"},
		{`array a[4][4] float32
kernel k { parfor i in 0..4 { parfor j in 0..4 { stmt flops=1 {load a[i][j]} } parfor z in 0..4 { stmt flops=1 {load a[z][z]} } } }`,
			"at most one nested loop"},
		{`kernel k { parfor i in 0..4 { for i in 0..2 { stmt flops=1 {} } } }`, "already in scope"},
		{`array a[4] float32
kernel k { parfor i in 0..4 { stmt nope=1 { load a[i] } } }`, "unknown statement attribute"},
		{`array a[4] float32
kernel k { parfor i in 0..4 { stmt { } } }`, "empty statement"},
		{`workload "W" size "s" sequence { nosuch }`, `undeclared kernel`},
		{`sequence { } sequence { }`, "duplicate sequence"},
		{`cpu elements=1 cpu elements=1`, "duplicate cpu"},
		{`cpu bogus=1`, "unknown cpu attribute"},
		{`cpu vectorizable=maybe`, "true or false"},
		{`workload "W" size "s"`, "missing sequence"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse accepted:\n%s", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("error %q does not mention %q", err.Error(), c.wantMsg)
		}
	}
}

func TestParseErrorPositionFormat(t *testing.T) {
	_, err := Parse("workload \"W\"\nbogus")
	if err == nil {
		t.Fatal("accepted")
	}
	if !strings.Contains(err.Error(), "2:1") {
		t.Errorf("error %q lacks position 2:1", err.Error())
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("testdata/nope.sk"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestMissingPieces(t *testing.T) {
	base := `
workload "W" size "s"
array a[64] float32
kernel k { parfor i in 0..64 { stmt flops=1 { load a[i] store a[i] } } }
`
	if _, err := Parse(base + `cpu elements=64 flops=1 regions=1`); err == nil ||
		!strings.Contains(err.Error(), "missing sequence") {
		t.Errorf("missing sequence: %v", err)
	}
	if _, err := Parse(base + `sequence { k }`); err == nil ||
		!strings.Contains(err.Error(), "missing cpu") {
		t.Errorf("missing cpu: %v", err)
	}
	noName := `
array a[64] float32
kernel k { parfor i in 0..64 { stmt flops=1 { load a[i] store a[i] } } }
sequence { k }
cpu elements=64 flops=1 regions=1`
	if _, err := Parse(noName); err == nil ||
		!strings.Contains(err.Error(), "missing workload") {
		t.Errorf("missing workload: %v", err)
	}
}

func TestNegativeConstIndex(t *testing.T) {
	w, err := Parse(`
workload "W" size "s"
array a[64] float32
kernel k { parfor i in 0..64 { stmt flops=1 { load a[-1+i] store a[i] } } }
sequence { k }
cpu elements=64 flops=1 bytes=8 regions=1
`)
	if err != nil {
		t.Fatal(err)
	}
	e := w.Seq.Kernels[0].Stmts[0].Accesses[0].Index[0]
	if e.Const != -1 || e.Coeff("i") != 1 {
		t.Errorf("index = %+v", e)
	}
}

func TestRoundTripAgainstHandBuilt(t *testing.T) {
	// The parsed blur kernel must have the same analytical footprint
	// as the same kernel built via the Go API.
	w := parseBlur(t)
	parsed := w.Seq.Kernels[0]

	in := skeleton.NewArray("in", skeleton.Float32, 2048, 2048)
	out := skeleton.NewArray("out", skeleton.Float32, 2048, 2048)
	handmade := &skeleton.Kernel{
		Name:  "blur5",
		Loops: []skeleton.Loop{skeleton.ParLoop("i", 2048), skeleton.ParLoop("j", 2048)},
		Stmts: []skeleton.Statement{{
			Accesses: []skeleton.Access{
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", -1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.IdxPlus("i", 1), skeleton.Idx("j")),
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.IdxPlus("j", -1)),
				skeleton.LoadOf(in, skeleton.Idx("i"), skeleton.IdxPlus("j", 1)),
				skeleton.StoreOf(out, skeleton.Idx("i"), skeleton.Idx("j")),
			},
			Flops:  5,
			IntOps: 12,
		}},
	}
	if parsed.ParallelIterations() != handmade.ParallelIterations() {
		t.Error("parallel iterations differ")
	}
	if parsed.FlopsPerThread() != handmade.FlopsPerThread() {
		t.Error("flops differ")
	}
	if parsed.LoadBytesPerThread() != handmade.LoadBytesPerThread() {
		t.Error("load bytes differ")
	}
	if parsed.ArithmeticIntensity() != handmade.ArithmeticIntensity() {
		t.Error("arithmetic intensity differs")
	}
}
