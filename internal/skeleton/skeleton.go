// Package skeleton defines the code-skeleton intermediate
// representation that GROPHECY++ consumes.
//
// A code skeleton (paper §II-C, Figure 1) is a simplified description
// of CPU code: loop nests, data parallelism, computational intensity,
// and array access patterns. It deliberately omits the actual
// arithmetic — the framework only needs the *shape* of the
// computation to explore GPU transformations and project performance.
//
// The representation here follows the paper's needs directly:
//
//   - Array: a named dense (or sparse/irregular) array with static
//     extents and element type. Arrays carry the user hints the paper
//     describes: Temporary ("written data that serve as temporaries
//     need not be transferred back", §III-B) and hints constraining
//     conservative sparse transfers.
//   - Loop: a counted loop with static bounds; Parallel marks
//     data-parallel dimensions that a GPU mapping may assign to
//     threads.
//   - Access: an array reference with one affine index expression per
//     array dimension (the basis of Bounded Regular Section analysis),
//     or an irregular index for indirect accesses such as A[col[j]].
//   - Statement: a group of accesses plus instruction counts.
//   - Kernel: a loop nest with a body of statements.
//   - Sequence: an ordered list of kernels offloaded together — the
//     unit over which data usage analysis runs.
package skeleton

import (
	"fmt"
	"slices"
	"strings"
)

// ElemType enumerates the element types that appear in the paper's
// benchmarks (float kernels, int index vectors, complex Monte Carlo
// amplitudes).
type ElemType int

// The supported element types; Size gives their byte widths.
const (
	Float32 ElemType = iota
	Float64
	Int32
	Int64
	Complex64
	Complex128
)

// Size returns the element size in bytes.
func (t ElemType) Size() int64 {
	switch t {
	case Float32, Int32:
		return 4
	case Float64, Int64, Complex64:
		return 8
	case Complex128:
		return 16
	default:
		panic(fmt.Sprintf("skeleton: unknown element type %d", int(t)))
	}
}

// String implements fmt.Stringer.
func (t ElemType) String() string {
	switch t {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Complex64:
		return "complex64"
	case Complex128:
		return "complex128"
	default:
		return fmt.Sprintf("ElemType(%d)", int(t))
	}
}

// Valid reports whether t is a defined element type.
func (t ElemType) Valid() bool { return t >= Float32 && t <= Complex128 }

// Array describes a named array in the skeleton.
type Array struct {
	Name string
	// Dims are the static extents, outermost (slowest-varying) first;
	// the layout is row-major, matching C/CUDA.
	Dims []int64
	Elem ElemType
	// Sparse marks irregularly-indexed arrays (e.g. CSR value/column
	// vectors). For sparse arrays the BRS is unknown and the
	// conservative transfer rule applies unless a hint bounds it
	// (§III-B).
	Sparse bool
	// Temporary is the user hint that this array holds intermediate
	// data the CPU never consumes: it must still live in GPU memory
	// but need not be transferred back (§III-B).
	Temporary bool
}

// NewArray constructs a dense array. It panics on invalid shapes,
// since skeletons are built by code, not parsed from user input.
func NewArray(name string, elem ElemType, dims ...int64) *Array {
	a := &Array{Name: name, Dims: dims, Elem: elem}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	return a
}

// Validate checks structural sanity.
func (a *Array) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("skeleton: array with empty name")
	}
	if !a.Elem.Valid() {
		return fmt.Errorf("skeleton: array %q has invalid element type", a.Name)
	}
	if len(a.Dims) == 0 {
		return fmt.Errorf("skeleton: array %q has no dimensions", a.Name)
	}
	for i, d := range a.Dims {
		if d <= 0 {
			return fmt.Errorf("skeleton: array %q dim %d has non-positive extent %d", a.Name, i, d)
		}
	}
	return nil
}

// Count returns the total number of elements.
func (a *Array) Count() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Bytes returns the total array footprint in bytes.
func (a *Array) Bytes() int64 { return a.Count() * a.Elem.Size() }

// RowStride returns the distance in elements between consecutive
// values of dimension dim (row-major layout): the product of the
// extents of all later dimensions.
func (a *Array) RowStride(dim int) int64 {
	if dim < 0 || dim >= len(a.Dims) {
		panic(fmt.Sprintf("skeleton: array %q has no dim %d", a.Name, dim))
	}
	s := int64(1)
	for i := dim + 1; i < len(a.Dims); i++ {
		s *= a.Dims[i]
	}
	return s
}

// String implements fmt.Stringer, e.g. "temp[1024][1024]float32".
func (a *Array) String() string {
	var b strings.Builder
	b.WriteString(a.Name)
	for _, d := range a.Dims {
		fmt.Fprintf(&b, "[%d]", d)
	}
	b.WriteString(a.Elem.String())
	return b.String()
}

// IndexExpr is an affine index expression over the loop variables of
// the enclosing nest: index = Const + sum(Coeffs[v] * v).
//
// Irregular marks an index whose value is data-dependent (indirect
// addressing); such accesses have no bounded regular section.
type IndexExpr struct {
	Coeffs    map[string]int64
	Const     int64
	Irregular bool
}

// Idx returns the expression "v" — coefficient 1 on loop variable v.
func Idx(v string) IndexExpr {
	return IndexExpr{Coeffs: map[string]int64{v: 1}}
}

// IdxPlus returns "v + c".
func IdxPlus(v string, c int64) IndexExpr {
	return IndexExpr{Coeffs: map[string]int64{v: 1}, Const: c}
}

// IdxConst returns the constant expression "c".
func IdxConst(c int64) IndexExpr { return IndexExpr{Const: c} }

// IdxIrregular returns an irregular (data-dependent) index.
func IdxIrregular() IndexExpr { return IndexExpr{Irregular: true} }

// Uses reports whether the expression references loop variable v with
// a nonzero coefficient.
func (e IndexExpr) Uses(v string) bool { return e.Coeffs[v] != 0 }

// Coeff returns the coefficient of loop variable v (0 if absent).
func (e IndexExpr) Coeff(v string) int64 { return e.Coeffs[v] }

// Vars returns the referenced loop variables in sorted order.
func (e IndexExpr) Vars() []string {
	return e.AppendVars(make([]string, 0, len(e.Coeffs)))
}

// AppendVars appends the referenced loop variables to dst in sorted
// order. With dst backed by a caller's stack array, listing an
// expression's variables does not allocate.
func (e IndexExpr) AppendVars(dst []string) []string {
	n := len(dst)
	for v, c := range e.Coeffs {
		if c != 0 {
			dst = append(dst, v)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// String implements fmt.Stringer, e.g. "i+1", "2*j", "?" (irregular).
func (e IndexExpr) String() string {
	if e.Irregular {
		return "?"
	}
	var parts []string
	for _, v := range e.Vars() {
		c := e.Coeffs[v]
		switch c {
		case 1:
			parts = append(parts, v)
		case -1:
			parts = append(parts, "-"+v)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, v))
		}
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", e.Const))
	}
	s := strings.Join(parts, "+")
	return strings.ReplaceAll(s, "+-", "-")
}

// AccessKind distinguishes loads from stores.
type AccessKind int

// Load reads an array element; Store writes one.
const (
	Load AccessKind = iota
	Store
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Access is one array reference in a statement.
type Access struct {
	Array *Array
	Kind  AccessKind
	// Index has one expression per array dimension.
	Index []IndexExpr
}

// LoadOf builds a load access with the given per-dimension indices.
func LoadOf(a *Array, idx ...IndexExpr) Access {
	return Access{Array: a, Kind: Load, Index: idx}
}

// StoreOf builds a store access.
func StoreOf(a *Array, idx ...IndexExpr) Access {
	return Access{Array: a, Kind: Store, Index: idx}
}

// Irregular reports whether any index dimension is irregular or the
// array itself is marked sparse. This is the conservative view used
// for transfer planning: a sparse array's extent is data-dependent
// even when the access pattern is a plain stream.
func (ac Access) Irregular() bool {
	return ac.Array.Sparse || ac.IrregularIndex()
}

// IrregularIndex reports whether any index dimension is
// data-dependent. This is the view relevant to memory coalescing: a
// CSR value stream (sparse array, affine index) coalesces perfectly,
// while a gather through an index vector does not.
func (ac Access) IrregularIndex() bool {
	for _, e := range ac.Index {
		if e.Irregular {
			return true
		}
	}
	return false
}

// Validate checks the access against its array.
func (ac Access) Validate() error {
	if ac.Array == nil {
		return fmt.Errorf("skeleton: access with nil array")
	}
	if len(ac.Index) != len(ac.Array.Dims) {
		return fmt.Errorf("skeleton: access to %q has %d indices, array has %d dims",
			ac.Array.Name, len(ac.Index), len(ac.Array.Dims))
	}
	return nil
}

// String implements fmt.Stringer, e.g. "load temp[i+1][j]".
func (ac Access) String() string {
	var b strings.Builder
	b.WriteString(ac.Kind.String())
	b.WriteByte(' ')
	b.WriteString(ac.Array.Name)
	for _, e := range ac.Index {
		fmt.Fprintf(&b, "[%s]", e.String())
	}
	return b.String()
}

// FlattenedCoeff returns the coefficient of loop variable v in the
// flattened (row-major element offset) index of the access, or false
// if any index dimension is irregular. A flattened coefficient of 1
// means consecutive iterations of v touch consecutive elements — the
// memory-coalescing condition on the GPU.
func (ac Access) FlattenedCoeff(v string) (int64, bool) {
	if ac.IrregularIndex() {
		return 0, false
	}
	var total int64
	for dim, e := range ac.Index {
		total += e.Coeff(v) * ac.Array.RowStride(dim)
	}
	return total, true
}

// Statement groups the accesses and instruction counts of one loop
// body statement. Instruction counts are per dynamic execution.
type Statement struct {
	// Accesses lists the array references, loads before stores by
	// convention (loads produce the operands of the store).
	Accesses []Access
	// Flops counts floating-point operations (adds/muls).
	Flops int
	// IntOps counts integer/address operations beyond implicit
	// indexing.
	IntOps int
	// Transcendentals counts long-latency ops (exp, log, sqrt, div).
	Transcendentals int
	// Depth is the loop nesting depth the statement executes at: it
	// runs once per iteration of Loops[0:Depth]. Zero means the
	// innermost level (all loops). A value between the number of
	// parallel loops and the total loop count hoists the statement
	// out of the inner sequential loops — e.g. an accumulator that is
	// read once, updated across a reduction loop in registers, and
	// stored once.
	Depth int
}

// Validate checks every access.
func (s Statement) Validate() error {
	for i, ac := range s.Accesses {
		if err := ac.Validate(); err != nil {
			return fmt.Errorf("statement access %d: %w", i, err)
		}
	}
	if s.Flops < 0 || s.IntOps < 0 || s.Transcendentals < 0 {
		return fmt.Errorf("skeleton: negative instruction count")
	}
	return nil
}

// Loop is one counted loop of a nest.
type Loop struct {
	Var string
	// Lower and Upper bound the half-open iteration range
	// [Lower, Upper); Step is the increment.
	Lower, Upper int64
	Step         int64
	// Parallel marks loops whose iterations are independent and may
	// be mapped to GPU threads.
	Parallel bool
}

// ParLoop builds a parallel loop over [0, n).
func ParLoop(v string, n int64) Loop {
	return Loop{Var: v, Lower: 0, Upper: n, Step: 1, Parallel: true}
}

// SeqLoop builds a sequential loop over [0, n).
func SeqLoop(v string, n int64) Loop {
	return Loop{Var: v, Lower: 0, Upper: n, Step: 1}
}

// Trips returns the iteration count of the loop.
func (l Loop) Trips() int64 {
	if l.Step <= 0 || l.Upper <= l.Lower {
		return 0
	}
	return (l.Upper - l.Lower + l.Step - 1) / l.Step
}

// Validate checks the loop shape.
func (l Loop) Validate() error {
	if l.Var == "" {
		return fmt.Errorf("skeleton: loop with empty variable name")
	}
	if l.Step <= 0 {
		return fmt.Errorf("skeleton: loop %q has non-positive step %d", l.Var, l.Step)
	}
	if l.Upper < l.Lower {
		return fmt.Errorf("skeleton: loop %q has upper %d below lower %d", l.Var, l.Upper, l.Lower)
	}
	return nil
}

// Kernel is one offloadable loop nest.
type Kernel struct {
	Name string
	// Loops, outermost first. Parallel loops must precede sequential
	// ones for the GPU mapping (the paper's kernels all have this
	// form; enforce it in Validate).
	Loops []Loop
	// Stmts form the body of the innermost loop.
	Stmts []Statement
}

// Validate checks kernel structure: non-empty, valid loops and
// statements, unique loop variables, parallel-outside-sequential, and
// all index expressions referencing declared loop variables. A
// kernel of at most scanLoops loops validates without allocating.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("skeleton: kernel with empty name")
	}
	if len(k.Loops) == 0 {
		return fmt.Errorf("skeleton: kernel %q has no loops", k.Name)
	}
	if len(k.Stmts) == 0 {
		return fmt.Errorf("skeleton: kernel %q has no statements", k.Name)
	}
	nest := NewLoopIndex(k.Loops)
	seenSeq := false
	nPar := 0
	for i, l := range k.Loops {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("kernel %q: %w", k.Name, err)
		}
		if nest.Of(l.Var) < i {
			return fmt.Errorf("skeleton: kernel %q reuses loop variable %q", k.Name, l.Var)
		}
		if l.Parallel && seenSeq {
			return fmt.Errorf("skeleton: kernel %q has parallel loop %q inside sequential loop", k.Name, l.Var)
		}
		if l.Parallel {
			nPar++
		} else {
			seenSeq = true
		}
	}
	for i, s := range k.Stmts {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("kernel %q statement %d: %w", k.Name, i, err)
		}
		if s.Depth != 0 && (s.Depth < nPar || s.Depth > len(k.Loops)) {
			return fmt.Errorf("skeleton: kernel %q statement %d depth %d outside [%d,%d]",
				k.Name, i, s.Depth, nPar, len(k.Loops))
		}
		depth := k.effectiveDepth(s)
		for _, ac := range s.Accesses {
			for _, e := range ac.Index {
				var buf [4]string
				for _, v := range e.AppendVars(buf[:0]) {
					at := nest.Of(v)
					if at < 0 {
						return fmt.Errorf("skeleton: kernel %q access %s references undeclared loop variable %q",
							k.Name, ac.String(), v)
					}
					if at >= depth {
						return fmt.Errorf("skeleton: kernel %q access %s references loop variable %q below its depth",
							k.Name, ac.String(), v)
					}
				}
			}
		}
	}
	return nil
}

// scanLoops is the nest depth up to which a LoopIndex scans its loops
// instead of building a map. The paper's kernels nest at most three.
const scanLoops = 8

// LoopIndex finds loops by variable. It scans a nest of at most
// scanLoops loops and looks a deeper one up through a map built once,
// so looking up every variable of a kernel nesting thousands of loops
// costs time linear in the nest, and a short nest allocates nothing.
type LoopIndex struct {
	loops []Loop
	byVar map[string]int // nil for a short nest
}

// NewLoopIndex indexes loops by variable.
func NewLoopIndex(loops []Loop) LoopIndex {
	x := LoopIndex{loops: loops}
	if len(loops) > scanLoops {
		x.byVar = make(map[string]int, len(loops))
		for i := len(loops) - 1; i >= 0; i-- {
			x.byVar[loops[i].Var] = i
		}
	}
	return x
}

// Of returns the position of the first loop over variable v, or -1.
func (x LoopIndex) Of(v string) int {
	if x.byVar != nil {
		if i, ok := x.byVar[v]; ok {
			return i
		}
		return -1
	}
	for i, l := range x.loops {
		if l.Var == v {
			return i
		}
	}
	return -1
}

// Loop returns the loop at position i of the nest.
func (x LoopIndex) Loop(i int) Loop { return x.loops[i] }

// effectiveDepth resolves a statement's Depth (0 means innermost).
func (k *Kernel) effectiveDepth(s Statement) int {
	if s.Depth == 0 {
		return len(k.Loops)
	}
	return s.Depth
}

// ExecsPerThread returns how many times the statement executes per
// GPU thread under the natural one-thread-per-parallel-iteration
// mapping: the product of the trip counts of the sequential loops
// enclosing it.
func (k *Kernel) ExecsPerThread(s Statement) int64 {
	depth := k.effectiveDepth(s)
	n := int64(1)
	for _, l := range k.Loops[:depth] {
		if !l.Parallel {
			n *= l.Trips()
		}
	}
	return n
}

// ParallelLoops returns the parallel loops of the nest.
func (k *Kernel) ParallelLoops() []Loop {
	var out []Loop
	for _, l := range k.Loops {
		if l.Parallel {
			out = append(out, l)
		}
	}
	return out
}

// SequentialLoops returns the non-parallel loops of the nest.
func (k *Kernel) SequentialLoops() []Loop {
	var out []Loop
	for _, l := range k.Loops {
		if !l.Parallel {
			out = append(out, l)
		}
	}
	return out
}

// ParallelIterations returns the product of the trip counts of the
// parallel loops: the number of GPU threads a one-thread-per-iteration
// mapping creates.
func (k *Kernel) ParallelIterations() int64 {
	n := int64(1)
	for _, l := range k.ParallelLoops() {
		n *= l.Trips()
	}
	return n
}

// SequentialIterations returns the product of the trip counts of the
// sequential loops: work per thread under the natural mapping.
func (k *Kernel) SequentialIterations() int64 {
	n := int64(1)
	for _, l := range k.SequentialLoops() {
		n *= l.Trips()
	}
	return n
}

// FlopsPerThread sums flop counts per GPU thread, accounting for each
// statement's execution depth.
func (k *Kernel) FlopsPerThread() int64 {
	var n int64
	for _, s := range k.Stmts {
		n += int64(s.Flops) * k.ExecsPerThread(s)
	}
	return n
}

// Accesses returns all accesses of the body in order.
func (k *Kernel) Accesses() []Access {
	var out []Access
	for _, s := range k.Stmts {
		out = append(out, s.Accesses...)
	}
	return out
}

// LoadBytesPerThread returns bytes loaded per GPU thread, counting
// each access once per execution (no reuse analysis).
func (k *Kernel) LoadBytesPerThread() int64 {
	return k.accessBytesPerThread(Load)
}

// StoreBytesPerThread returns bytes stored per GPU thread.
func (k *Kernel) StoreBytesPerThread() int64 {
	return k.accessBytesPerThread(Store)
}

func (k *Kernel) accessBytesPerThread(kind AccessKind) int64 {
	var n int64
	for _, s := range k.Stmts {
		execs := k.ExecsPerThread(s)
		for _, ac := range s.Accesses {
			if ac.Kind == kind {
				n += ac.Array.Elem.Size() * execs
			}
		}
	}
	return n
}

// Sequence is an ordered list of kernels offloaded to the GPU as a
// unit, plus the arrays they touch. It is the scope of data usage
// analysis: data produced by an earlier kernel and consumed by a
// later one stays on the GPU.
type Sequence struct {
	Name    string
	Kernels []*Kernel
	// Iterations is how many times the kernel list repeats (the
	// paper's iterative applications re-invoke the same kernels; the
	// amount of data transferred is independent of the iteration
	// count, §IV-B).
	Iterations int
}

// Validate checks the sequence and each kernel.
func (s *Sequence) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("skeleton: sequence with empty name")
	}
	if len(s.Kernels) == 0 {
		return fmt.Errorf("skeleton: sequence %q has no kernels", s.Name)
	}
	if s.Iterations < 1 {
		return fmt.Errorf("skeleton: sequence %q has iteration count %d", s.Name, s.Iterations)
	}
	names := make(map[string]bool, len(s.Kernels))
	for _, k := range s.Kernels {
		if k == nil {
			return fmt.Errorf("skeleton: sequence %q contains nil kernel", s.Name)
		}
		if err := k.Validate(); err != nil {
			return err
		}
		if names[k.Name] {
			return fmt.Errorf("skeleton: sequence %q has duplicate kernel name %q", s.Name, k.Name)
		}
		names[k.Name] = true
	}
	return nil
}

// Arrays returns the distinct arrays referenced by the sequence, in
// first-reference order.
func (s *Sequence) Arrays() []*Array {
	seen := make(map[*Array]bool)
	var out []*Array
	for _, k := range s.Kernels {
		for _, ac := range k.Accesses() {
			if !seen[ac.Array] {
				seen[ac.Array] = true
				out = append(out, ac.Array)
			}
		}
	}
	return out
}

// WithIterations returns a shallow copy of the sequence with a
// different iteration count — used by the iteration-sweep experiments
// (Figs 8, 10, 12).
func (s *Sequence) WithIterations(n int) *Sequence {
	c := *s
	c.Iterations = n
	return &c
}
