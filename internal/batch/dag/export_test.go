package dag

// Order returns a copy of the deterministic emission order.
func (g *Graph) Order() []int {
	return append([]int(nil), g.order...)
}
