package skeleton

// IdxScaled returns "a*v + c".
func IdxScaled(v string, a, c int64) IndexExpr {
	return IndexExpr{Coeffs: map[string]int64{v: a}, Const: c}
}

// IdxSum returns "a1*v1 + a2*v2 + c" for a two-variable affine index
// (e.g. row*width + col flattened indexing).
func IdxSum(v1 string, a1 int64, v2 string, a2, c int64) IndexExpr {
	return IndexExpr{Coeffs: map[string]int64{v1: a1, v2: a2}, Const: c}
}

// TotalIterations returns the total dynamic iteration count.
func (k *Kernel) TotalIterations() int64 {
	return k.ParallelIterations() * k.SequentialIterations()
}

// TotalFlops returns flops across the whole iteration space.
func (k *Kernel) TotalFlops() int64 {
	return k.ParallelIterations() * k.FlopsPerThread()
}

// ArithmeticIntensity returns flops per byte of global traffic under
// the no-reuse assumption — the quantity that decides memory- vs
// compute-bound on the roofline.
func (k *Kernel) ArithmeticIntensity() float64 {
	bytes := k.LoadBytesPerThread() + k.StoreBytesPerThread()
	if bytes == 0 {
		return 0
	}
	return float64(k.FlopsPerThread()) / float64(bytes)
}
