package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// interleave packs k column vectors into the row-major k-strided block
// layout MulMat consumes (X[c*k+j] = cols[j][c]).
func interleave(cols [][]float64) []float64 {
	k := len(cols)
	n := len(cols[0])
	x := make([]float64, n*k)
	for j, col := range cols {
		for c, v := range col {
			x[c*k+j] = v
		}
	}
	return x
}

// mulMatWidths reaches every tile shape of rowDotK: each remainder after the
// 8-column tiles, with and without the 4-column tile, and wide blocks.
var mulMatWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 32, 64}

// checkMulMatBitwise is the SpMM determinism contract: column j of every
// MulMat* variant, applied to k random columns, must be bitwise identical
// to MulVec applied to column j alone.
func checkMulMatBitwise(t testing.TB, name string, m *CSR, k int, rng *rand.Rand) {
	t.Helper()
	r, c := m.Rows, m.Cols
	cols := make([][]float64, k)
	want := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, c)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
		want[j] = make([]float64, r)
		m.MulVec(want[j], cols[j])
	}
	x := interleave(cols)

	check := func(variant string, y []float64) {
		t.Helper()
		for j := 0; j < k; j++ {
			for i := 0; i < r; i++ {
				if y[i*k+j] != want[j][i] {
					t.Fatalf("%s k=%d %s: column %d row %d = %x, MulVec %x",
						name, k, variant, j, i, y[i*k+j], want[j][i])
				}
			}
		}
	}

	y := make([]float64, r*k)
	m.MulMat(y, x, k)
	check("MulMat", y)

	rows := make([]int, r)
	for i := range rows {
		rows[i] = i
	}
	ys := make([]float64, r*k)
	m.MulMatScatter(ys, x, rows, k)
	check("MulMatScatter", ys)
	ysp := make([]float64, r*k)
	m.MulMatScatterPar(ysp, x, rows, k)
	check("MulMatScatterPar", ysp)
}

// TestMulMatColumnsBitwiseMulVec holds the SpMM determinism contract on
// random matrices at every width of mulMatWidths.
func TestMulMatColumnsBitwiseMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range mulMatWidths {
		for trial := 0; trial < 3; trial++ {
			r := 1 + rng.Intn(40)
			c := 1 + rng.Intn(40)
			m := FromDense(r, c, randDense(rng, r, c, 0.3))
			checkMulMatBitwise(t, fmt.Sprintf("trial %d", trial), m, k, rng)
		}
	}
}

// TestMulMatScatterPlacement checks the scatter variant against a permuted
// row map: sub-matrix row i must land at y[rows[i]*k : rows[i]*k+k].
func TestMulMatScatterPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, c, k := 12, 9, 4
	full := FromDense(r, c, randDense(rng, r, c, 0.5))
	// Take the odd rows as a compressed sub-matrix scattered to their
	// original positions.
	var sel []int
	for i := 1; i < r; i += 2 {
		sel = append(sel, i)
	}
	allCols := make([]int, c)
	for i := range allCols {
		allCols[i] = i
	}
	sub := full.Submatrix(sel, allCols)
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, c)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
	}
	x := interleave(cols)
	y := make([]float64, r*k)
	sub.MulMatScatter(y, x, sel, k)
	for j := 0; j < k; j++ {
		want := make([]float64, r)
		full.MulVec(want, cols[j])
		for _, i := range sel {
			if y[i*k+j] != want[i] {
				t.Fatalf("scatter column %d row %d = %x, want %x", j, i, y[i*k+j], want[i])
			}
		}
	}
}
