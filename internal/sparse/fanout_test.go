package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func nanBlock(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = math.NaN()
	}
	return y
}

// TestQuickMulMatScatterConcurrentCallers: goroutines fanning out products
// at once, over one matrix into their own NaN-filled outputs, must each get
// the rows scored serially on one goroutine, bit for bit: no chunk lands in
// another product's output, and a recycled task never scores with a
// previous product's fields.
func TestQuickMulMatScatterConcurrentCallers(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(10))
	m, rows := bandedRandom(rng, n, 20, 1), make([]int, n)
	for i := range rows {
		rows[i] = n - 1 - i // scattered in reverse
	}
	widths := []int{1, 8}
	xs, wants := make([][]float64, len(widths)), make([][]float64, len(widths))
	for w, k := range widths {
		if m.NNZ()*k < fanOutNNZ || n < 2*fanOutRows {
			t.Fatalf("%d rows, %d entries at width %d: too small to fan out", n, m.NNZ(), k)
		}
		xs[w], wants[w] = make([]float64, n*k), nanBlock(n*k)
		for i := range xs[w] {
			xs[w][i] = rng.NormFloat64()
		}
		m.scatterRows(wants[w], xs[w], rows, k, 0, n)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 50 {
				w := (g + r) % len(widths)
				y := nanBlock(len(wants[w]))
				m.MulMatScatter(y, xs[w], rows, widths[w])
				if !slices.EqualFunc(y, wants[w], same) {
					t.Errorf("caller %d, width %d: rows differ from the serial rows", g, widths[w])
					return
				}
			}
		}()
	}
	wg.Wait()
}
