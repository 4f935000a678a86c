package skeleton

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestElemTypeSize(t *testing.T) {
	cases := map[ElemType]int64{
		Float32: 4, Int32: 4,
		Float64: 8, Int64: 8, Complex64: 8,
		Complex128: 16,
	}
	for ty, want := range cases {
		if got := ty.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", ty, got, want)
		}
	}
}

func TestElemTypeSizePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown ElemType.Size did not panic")
		}
	}()
	ElemType(99).Size()
}

func TestElemTypeStringAndValid(t *testing.T) {
	if Float32.String() != "float32" || Complex128.String() != "complex128" {
		t.Error("ElemType strings wrong")
	}
	if !Int64.Valid() || ElemType(99).Valid() {
		t.Error("ElemType.Valid wrong")
	}
	if !strings.Contains(ElemType(99).String(), "99") {
		t.Error("fallback ElemType string wrong")
	}
}

func TestArrayBasics(t *testing.T) {
	a := NewArray("temp", Float32, 1024, 1024)
	if a.Count() != 1024*1024 {
		t.Errorf("Count = %d", a.Count())
	}
	if a.Bytes() != 4*1024*1024 {
		t.Errorf("Bytes = %d", a.Bytes())
	}
	if a.RowStride(0) != 1024 || a.RowStride(1) != 1 {
		t.Errorf("RowStride = %d, %d", a.RowStride(0), a.RowStride(1))
	}
	if got := a.String(); got != "temp[1024][1024]float32" {
		t.Errorf("String = %q", got)
	}
}

func TestArrayValidate(t *testing.T) {
	bad := []*Array{
		{Name: "", Dims: []int64{4}, Elem: Float32},
		{Name: "a", Dims: nil, Elem: Float32},
		{Name: "a", Dims: []int64{0}, Elem: Float32},
		{Name: "a", Dims: []int64{4, -1}, Elem: Float32},
		{Name: "a", Dims: []int64{4}, Elem: ElemType(99)},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: invalid array accepted: %+v", i, a)
		}
	}
}

func TestNewArrayPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray with zero dim did not panic")
		}
	}()
	NewArray("x", Float32, 0)
}

func TestRowStridePanicsOutOfRange(t *testing.T) {
	a := NewArray("a", Float32, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("RowStride(1) on 1-D array did not panic")
		}
	}()
	a.RowStride(1)
}

func TestIndexExprBuilders(t *testing.T) {
	if got := Idx("i").String(); got != "i" {
		t.Errorf("Idx = %q", got)
	}
	if got := IdxPlus("i", -1).String(); got != "i-1" {
		t.Errorf("IdxPlus = %q", got)
	}
	if got := IdxPlus("i", 2).String(); got != "i+2" {
		t.Errorf("IdxPlus = %q", got)
	}
	if got := IdxScaled("j", 2, 0).String(); got != "2*j" {
		t.Errorf("IdxScaled = %q", got)
	}
	if got := IdxConst(5).String(); got != "5" {
		t.Errorf("IdxConst = %q", got)
	}
	if got := IdxConst(0).String(); got != "0" {
		t.Errorf("IdxConst(0) = %q", got)
	}
	if got := IdxSum("i", 4, "j", 1, 0).String(); got != "4*i+j" {
		t.Errorf("IdxSum = %q", got)
	}
	if got := IdxIrregular().String(); got != "?" {
		t.Errorf("IdxIrregular = %q", got)
	}
}

func TestIndexExprUsesCoeffVars(t *testing.T) {
	e := IdxSum("i", 4, "j", 1, 7)
	if !e.Uses("i") || !e.Uses("j") || e.Uses("k") {
		t.Error("Uses wrong")
	}
	if e.Coeff("i") != 4 || e.Coeff("k") != 0 {
		t.Error("Coeff wrong")
	}
	vars := e.Vars()
	if len(vars) != 2 || vars[0] != "i" || vars[1] != "j" {
		t.Errorf("Vars = %v", vars)
	}
	// Zero coefficients are invisible.
	z := IndexExpr{Coeffs: map[string]int64{"i": 0}}
	if z.Uses("i") || len(z.Vars()) != 0 {
		t.Error("zero coefficient should be invisible")
	}
}

func TestAccessValidateAndString(t *testing.T) {
	a := NewArray("grid", Float32, 64, 64)
	ac := LoadOf(a, IdxPlus("i", 1), Idx("j"))
	if err := ac.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ac.String(); got != "load grid[i+1][j]" {
		t.Errorf("String = %q", got)
	}
	st := StoreOf(a, Idx("i"), Idx("j"))
	if st.Kind != Store {
		t.Error("StoreOf kind wrong")
	}
	bad := LoadOf(a, Idx("i"))
	if err := bad.Validate(); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := (Access{}).Validate(); err == nil {
		t.Error("nil array accepted")
	}
}

func TestAccessIrregular(t *testing.T) {
	dense := NewArray("d", Float32, 8)
	sparse := &Array{Name: "s", Dims: []int64{8}, Elem: Float32, Sparse: true}
	if LoadOf(dense, Idx("i")).Irregular() {
		t.Error("dense affine access marked irregular")
	}
	if !LoadOf(dense, IdxIrregular()).Irregular() {
		t.Error("irregular index not detected")
	}
	if !LoadOf(sparse, Idx("i")).Irregular() {
		t.Error("sparse array access not marked irregular")
	}
}

func TestFlattenedCoeff(t *testing.T) {
	a := NewArray("m", Float32, 128, 256)
	// m[i][j]: coeff of j is 1 (coalesced), of i is 256.
	ac := LoadOf(a, Idx("i"), Idx("j"))
	if c, ok := ac.FlattenedCoeff("j"); !ok || c != 1 {
		t.Errorf("coeff j = %d, %v", c, ok)
	}
	if c, ok := ac.FlattenedCoeff("i"); !ok || c != 256 {
		t.Errorf("coeff i = %d, %v", c, ok)
	}
	// Transposed access m[j][i]: coeff of i is 1... no: index 0 is j.
	tr := LoadOf(a, Idx("j"), Idx("i"))
	if c, _ := tr.FlattenedCoeff("j"); c != 256 {
		t.Errorf("transposed coeff j = %d", c)
	}
	if _, ok := LoadOf(a, IdxIrregular(), Idx("j")).FlattenedCoeff("j"); ok {
		t.Error("irregular access should have no flattened coeff")
	}
}

func TestLoopTrips(t *testing.T) {
	if got := ParLoop("i", 100).Trips(); got != 100 {
		t.Errorf("Trips = %d", got)
	}
	l := Loop{Var: "i", Lower: 0, Upper: 10, Step: 3}
	if got := l.Trips(); got != 4 {
		t.Errorf("step-3 Trips = %d, want 4", got)
	}
	if got := (Loop{Var: "i", Lower: 5, Upper: 5, Step: 1}).Trips(); got != 0 {
		t.Errorf("empty loop Trips = %d", got)
	}
}

func TestLoopValidate(t *testing.T) {
	if err := ParLoop("i", 4).Validate(); err != nil {
		t.Error(err)
	}
	bad := []Loop{
		{Var: "", Lower: 0, Upper: 4, Step: 1},
		{Var: "i", Lower: 0, Upper: 4, Step: 0},
		{Var: "i", Lower: 4, Upper: 0, Step: 1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid loop accepted", i)
		}
	}
}

// stencilKernel builds a small HotSpot-like 3x3 stencil kernel.
func stencilKernel(t *testing.T, n int64) (*Kernel, *Array, *Array) {
	t.Helper()
	in := NewArray("in", Float32, n, n)
	out := NewArray("out", Float32, n, n)
	k := &Kernel{
		Name:  "stencil",
		Loops: []Loop{ParLoop("i", n), ParLoop("j", n)},
		Stmts: []Statement{{
			Accesses: []Access{
				LoadOf(in, Idx("i"), Idx("j")),
				LoadOf(in, IdxPlus("i", -1), Idx("j")),
				LoadOf(in, IdxPlus("i", 1), Idx("j")),
				LoadOf(in, Idx("i"), IdxPlus("j", -1)),
				LoadOf(in, Idx("i"), IdxPlus("j", 1)),
				StoreOf(out, Idx("i"), Idx("j")),
			},
			Flops: 10,
		}},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	return k, in, out
}

func TestKernelAggregates(t *testing.T) {
	k, _, _ := stencilKernel(t, 64)
	if got := k.ParallelIterations(); got != 64*64 {
		t.Errorf("ParallelIterations = %d", got)
	}
	if got := k.SequentialIterations(); got != 1 {
		t.Errorf("SequentialIterations = %d", got)
	}
	if got := k.TotalIterations(); got != 64*64 {
		t.Errorf("TotalIterations = %d", got)
	}
	if got := k.FlopsPerThread(); got != 10 {
		t.Errorf("FlopsPerThread = %d", got)
	}
	if got := k.TotalFlops(); got != 10*64*64 {
		t.Errorf("TotalFlops = %d", got)
	}
	if got := k.LoadBytesPerThread(); got != 20 {
		t.Errorf("LoadBytes = %d", got)
	}
	if got := k.StoreBytesPerThread(); got != 4 {
		t.Errorf("StoreBytes = %d", got)
	}
	if got := k.ArithmeticIntensity(); got != 10.0/24.0 {
		t.Errorf("ArithmeticIntensity = %v", got)
	}
	if got := len(k.Accesses()); got != 6 {
		t.Errorf("Accesses = %d", got)
	}
}

func TestKernelWithSequentialLoop(t *testing.T) {
	a := NewArray("a", Float32, 100, 8)
	k := &Kernel{
		Name:  "reduce",
		Loops: []Loop{ParLoop("i", 100), SeqLoop("j", 8)},
		Stmts: []Statement{{
			Accesses: []Access{LoadOf(a, Idx("i"), Idx("j"))},
			Flops:    2,
		}},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.ParallelIterations() != 100 || k.SequentialIterations() != 8 {
		t.Error("iteration split wrong")
	}
	if len(k.ParallelLoops()) != 1 || len(k.SequentialLoops()) != 1 {
		t.Error("loop classification wrong")
	}
}

func TestKernelValidateRejects(t *testing.T) {
	a := NewArray("a", Float32, 4)
	good := func() *Kernel {
		return &Kernel{
			Name:  "k",
			Loops: []Loop{ParLoop("i", 4)},
			Stmts: []Statement{{Accesses: []Access{LoadOf(a, Idx("i"))}, Flops: 1}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatal(err)
	}

	k := good()
	k.Name = ""
	if k.Validate() == nil {
		t.Error("empty name accepted")
	}

	k = good()
	k.Loops = nil
	if k.Validate() == nil {
		t.Error("no loops accepted")
	}

	k = good()
	k.Stmts = nil
	if k.Validate() == nil {
		t.Error("no statements accepted")
	}

	k = good()
	k.Loops = []Loop{ParLoop("i", 4), ParLoop("i", 8)}
	if k.Validate() == nil {
		t.Error("duplicate loop var accepted")
	}

	k = good()
	k.Loops = []Loop{SeqLoop("s", 4), ParLoop("i", 4)}
	if k.Validate() == nil {
		t.Error("parallel inside sequential accepted")
	}

	k = good()
	k.Stmts[0].Accesses[0].Index = []IndexExpr{Idx("zz")}
	if k.Validate() == nil {
		t.Error("undeclared loop variable accepted")
	}

	k = good()
	k.Stmts[0].Flops = -1
	if k.Validate() == nil {
		t.Error("negative flops accepted")
	}
}

func TestSequence(t *testing.T) {
	k, in, out := stencilKernel(t, 64)
	s := &Sequence{Name: "hotspot", Kernels: []*Kernel{k}, Iterations: 1}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	arrays := s.Arrays()
	if len(arrays) != 2 || arrays[0] != in || arrays[1] != out {
		t.Errorf("Arrays = %v", arrays)
	}
	s2 := s.WithIterations(50)
	if s2.Iterations != 50 || s.Iterations != 1 {
		t.Error("WithIterations wrong")
	}
	if s2.Name != s.Name || len(s2.Kernels) != 1 {
		t.Error("WithIterations lost fields")
	}
}

func TestSequenceValidateRejects(t *testing.T) {
	k, _, _ := stencilKernel(t, 8)
	cases := []*Sequence{
		{Name: "", Kernels: []*Kernel{k}, Iterations: 1},
		{Name: "s", Kernels: nil, Iterations: 1},
		{Name: "s", Kernels: []*Kernel{k}, Iterations: 0},
		{Name: "s", Kernels: []*Kernel{nil}, Iterations: 1},
		{Name: "s", Kernels: []*Kernel{k, k}, Iterations: 1}, // duplicate name
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid sequence accepted", i)
		}
	}
}

func TestQuickLoopTripsNonNegative(t *testing.T) {
	prop := func(lo, hi int32, step uint8) bool {
		l := Loop{Var: "i", Lower: int64(lo), Upper: int64(hi), Step: int64(step)}
		return l.Trips() >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickArrayBytesIsCountTimesElem(t *testing.T) {
	prop := func(d1, d2 uint8) bool {
		a := NewArray("a", Float64, int64(d1)+1, int64(d2)+1)
		return a.Bytes() == a.Count()*8 && a.Count() == (int64(d1)+1)*(int64(d2)+1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoopIndex(t *testing.T) {
	// A short nest is scanned and a deep one looked up through a map;
	// both return the first loop over a variable.
	for _, n := range []int{3, scanLoops, scanLoops + 1, 4 * scanLoops} {
		loops := make([]Loop, n)
		for i := range loops {
			loops[i] = SeqLoop(fmt.Sprintf("v%d", i), 2)
		}
		loops[n-1].Var = "v1"
		x := NewLoopIndex(loops)
		if got := x.Of("v0"); got != 0 {
			t.Errorf("n=%d: Of(v0) = %d, want 0", n, got)
		}
		if got := x.Of("v1"); got != 1 {
			t.Errorf("n=%d: Of(v1) = %d, want the first loop, 1", n, got)
		}
		if got := x.Of("w"); got != -1 {
			t.Errorf("n=%d: Of(w) = %d, want -1", n, got)
		}
	}
}

func TestKernelValidateDeepNest(t *testing.T) {
	// Past scanLoops loops Validate looks variables up through a map
	// and must reject what a short nest rejects.
	a := NewArray("a", Float32, 4)
	deep := func() *Kernel {
		k := &Kernel{Name: "k", Loops: []Loop{ParLoop("i", 4)}}
		for d := 0; d < 2*scanLoops; d++ {
			k.Loops = append(k.Loops, SeqLoop(fmt.Sprintf("v%d", d), 2))
		}
		k.Stmts = []Statement{{Accesses: []Access{LoadOf(a, IndexExpr{Coeffs: map[string]int64{"i": 1, "v9": 1}})}}}
		return k
	}
	if err := deep().Validate(); err != nil {
		t.Fatal(err)
	}
	k := deep()
	k.Loops[len(k.Loops)-1].Var = "v3"
	if k.Validate() == nil {
		t.Error("duplicate loop var accepted")
	}
	k = deep()
	k.Stmts[0].Depth = 2
	if k.Validate() == nil {
		t.Error("loop variable below the statement's depth accepted")
	}
	k = deep()
	k.Stmts[0].Accesses[0].Index = []IndexExpr{Idx("zz")}
	if k.Validate() == nil {
		t.Error("undeclared loop variable accepted")
	}
}
