package vec

// The pooled kernels' old names, kept as forwards because bench/ still calls
// them. bench/ only, ROADMAP item 4 deletes. The thread argument is ignored.

// ParDotN is Dot.
func ParDotN(x, y []float64, _ int) float64 { return Dot(x, y) }

// ParNrm2SqN is Nrm2Sq.
func ParNrm2SqN(x []float64, _ int) float64 { return Nrm2Sq(x) }

// ParAxpyAxpy is AxpyAxpy.
func ParAxpyAxpy(a float64, x, y []float64, b float64, u, v []float64, _ int) {
	AxpyAxpy(a, x, y, b, u, v)
}
