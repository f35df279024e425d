package sparse

// The SpMM oracle, shared with the external test package, whose files need
// matgen (which imports sparse).
var (
	MulMatWidths       = mulMatWidths
	CheckMulMatBitwise = checkMulMatBitwise
	GoMulMat           = goMulMat
)

// HasSIMDKernel reports whether MulMat dispatches its column tiles to a SIMD
// kernel on this platform and build.
func HasSIMDKernel() bool { return spmmLanes != nil }

// goMulMat is MulMat on the Go kernel alone, rowDotK row by row: the
// reference the SIMD kernel is held to.
func goMulMat(m *CSR, y, x []float64, k int) {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		rowDotK(m.Col[lo:hi], m.Val[lo:hi], x, y[i*k:i*k+k])
	}
}
