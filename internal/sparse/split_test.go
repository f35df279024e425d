package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randWindow draws an own-column window [lo, hi) of a c-column matrix —
// empty (every row boundary), full (every row interior) or anything between —
// and the sorted exterior columns m stores.
func randWindow(rng *rand.Rand, m *CSR) (lo, hi int, ghost []int) {
	lo = rng.Intn(m.Cols + 1)
	hi = lo + rng.Intn(m.Cols+1-lo)
	stored := make([]bool, m.Cols)
	for _, c := range m.Col {
		stored[c] = true
	}
	for c, ok := range stored {
		if ok && (c < lo || c >= hi) {
			ghost = append(ghost, c)
		}
	}
	return lo, hi, ghost
}

// TestQuickSplitLocalizePartitionProperty: across random matrices and random
// own-column windows, the localised interior/boundary split must (a) cover
// every source row exactly once with disjoint index sets, (b) classify rows
// correctly, (c) reproduce each row's stored entries verbatim, own columns
// shifted to [0, bs) and exterior ones to bs + their ghost position — the
// invariants the overlapped distributed SpMV's bit-identical guarantee rests
// on. Every array is allocated at its final size.
func TestQuickSplitLocalizePartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		r := 1 + rng.Intn(40)
		c := 1 + rng.Intn(40)
		m := FromDense(r, c, randDense(rng, r, c, 0.05+0.5*rng.Float64()))
		lo, hi, ghost := randWindow(rng, m)
		bs := hi - lo
		s := SplitLocalize(m, lo, hi, ghost)

		if len(s.IntRows) != s.Interior.Rows || len(s.BndRows) != s.Boundary.Rows {
			t.Fatalf("trial %d: row maps sized %d/%d, sub-matrices %d/%d rows",
				trial, len(s.IntRows), len(s.BndRows), s.Interior.Rows, s.Boundary.Rows)
		}
		seen := make([]int, r)
		for _, i := range s.IntRows {
			seen[i]++
		}
		for _, i := range s.BndRows {
			seen[i] += 10 // disjointness shows up as a mixed count
		}
		for i, v := range seen {
			if v != 1 && v != 10 {
				t.Fatalf("trial %d (r=%d c=%d own=[%d,%d)): row %d covered with code %d, want exactly one side",
					trial, r, c, lo, hi, i, v)
			}
		}
		for name, n := range map[string][2]int{
			"Interior.RowPtr": {cap(s.Interior.RowPtr), s.Interior.Rows + 1},
			"Boundary.RowPtr": {cap(s.Boundary.RowPtr), s.Boundary.Rows + 1},
			"Interior.Col":    {cap(s.Interior.Col), s.Interior.NNZ()},
			"Boundary.Col":    {cap(s.Boundary.Col), s.Boundary.NNZ()},
			"IntRows":         {cap(s.IntRows), len(s.IntRows)},
			"BndRows":         {cap(s.BndRows), len(s.BndRows)},
		} {
			if n[0] != n[1] {
				t.Fatalf("trial %d: %s has capacity %d for %d elements", trial, name, n[0], n[1])
			}
		}
		check := func(sub *CSR, rows []int, wantInterior bool) {
			// Not CheckValid: localising moves the columns below lo behind the
			// own block, so a localised row is not ascending.
			if sub.Cols != bs+len(ghost) || len(sub.RowPtr) != sub.Rows+1 || sub.RowPtr[0] != 0 ||
				sub.RowPtr[sub.Rows] != len(sub.Col) || len(sub.Col) != len(sub.Val) {
				t.Fatalf("trial %d: sub-matrix storage inconsistent (%d cols, want %d)", trial, sub.Cols, bs+len(ghost))
			}
			for si, srcRow := range rows {
				gotC, gotV := sub.Row(si)
				wantC, wantV := m.Row(srcRow)
				if len(gotC) != len(wantC) {
					t.Fatalf("trial %d: row %d has %d entries, want %d", trial, srcRow, len(gotC), len(wantC))
				}
				nExt := 0
				for k, g := range wantC {
					local := g - lo
					if g < lo || g >= hi {
						nExt++
						local = bs
						for ghost[local-bs] != g {
							local++
						}
					}
					if gotC[k] != local || gotV[k] != wantV[k] {
						t.Fatalf("trial %d: row %d entry %d is (%d, %v), want (%d, %v)",
							trial, srcRow, k, gotC[k], gotV[k], local, wantV[k])
					}
				}
				if (nExt == 0) != wantInterior {
					t.Fatalf("trial %d (own=[%d,%d)): row %d classified interior=%v with %d exterior entries",
						trial, lo, hi, srcRow, wantInterior, nExt)
				}
			}
		}
		check(s.Interior, s.IntRows, true)
		check(s.Boundary, s.BndRows, false)
	}
}

// TestQuickSplitScatterMatchesMulVec: scoring both halves of a split through
// a width-1 MulMatScatter (and its parallel variant) on the localised input —
// own block first, ghost values after it — must be bit-identical to the
// unsplit MulVec on the global one.
func TestQuickSplitScatterMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		r := 1 + rng.Intn(60)
		c := 1 + rng.Intn(60)
		m := FromDense(r, c, randDense(rng, r, c, 0.3))
		lo, hi, ghost := randWindow(rng, m)
		s := SplitLocalize(m, lo, hi, ghost)
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, r)
		m.MulVec(want, x)
		xLocal := append([]float64(nil), x[lo:hi]...)
		for _, g := range ghost {
			xLocal = append(xLocal, x[g])
		}

		got := make([]float64, r)
		s.Interior.MulMatScatter(got, xLocal, s.IntRows, 1)
		s.Boundary.MulMatScatter(got, xLocal, s.BndRows, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: scatter y[%d] = %x, MulVec %x", trial, i, got[i], want[i])
			}
		}
		par := make([]float64, r)
		s.Interior.MulMatScatterPar(par, xLocal, s.IntRows, 1)
		s.Boundary.MulMatScatterPar(par, xLocal, s.BndRows, 1)
		for i := range want {
			if par[i] != want[i] {
				t.Fatalf("trial %d: parallel scatter y[%d] = %x, MulVec %x", trial, i, par[i], want[i])
			}
		}
	}
}

// bandedRandom is an n x n matrix whose row i stores each column of
// [i-w, i+w] with probability density, in ascending order.
func bandedRandom(rng *rand.Rand, n, w int, density float64) *CSR {
	a := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := max(i-w, 0); j <= min(i+w, n-1); j++ {
			if j == i || rng.Float64() < density {
				a.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return a.ToCSR()
}

// TestQuickSplitScatterParAboveThreshold: both halves of a split large enough
// to clear parNNZThreshold — so the pooled, row-chunked branch the workload
// SpMVs run is the one under test, over several 256-row chunks each — score
// bit-identically to the unsplit serial MulVec (at width 1 through rowDot,
// at width 3 through rowDotK, to MulVec per column). The outputs start as NaN, so a chunk the pool never computes shows
// as a mismatch.
func TestQuickSplitScatterParAboveThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// Rows inside [lo, hi) away from its edges are interior, the rest
	// boundary: about 1 500 rows and 25 000 entries on each side.
	const n, lo, hi, k = 3000, 750, 2250, 3
	m := bandedRandom(rng, n, 10, 0.8)
	var ghost []int
	for c := 0; c < n; c++ {
		if c < lo || c >= hi {
			ghost = append(ghost, c) // a banded matrix stores every column
		}
	}
	s := SplitLocalize(m, lo, hi, ghost)
	for name, sub := range map[string]*CSR{"interior": s.Interior, "boundary": s.Boundary} {
		if sub.NNZ() < parNNZThreshold || sub.Rows < 2*parRowChunk {
			t.Fatalf("%s half has %d rows, %d entries: too small to fan out over several chunks", name, sub.Rows, sub.NNZ())
		}
	}
	nan := func(n int) []float64 {
		y := make([]float64, n)
		for i := range y {
			y[i] = math.NaN()
		}
		return y
	}
	cols := make([][]float64, k)  // global inputs
	local := make([][]float64, k) // the same, own block first, then the ghosts
	want := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
		local[j] = append([]float64(nil), cols[j][lo:hi]...)
		for _, g := range ghost {
			local[j] = append(local[j], cols[j][g])
		}
		want[j] = make([]float64, n)
		m.MulVec(want[j], cols[j])
	}

	y := nan(n)
	s.Interior.MulMatScatterPar(y, local[0], s.IntRows, 1)
	s.Boundary.MulMatScatterPar(y, local[0], s.BndRows, 1)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[0][i]) {
			t.Fatalf("width-1 MulMatScatterPar y[%d] = %x, MulVec %x", i, y[i], want[0][i])
		}
	}
	yk, xk := nan(n*k), interleave(local)
	s.Interior.MulMatScatterPar(yk, xk, s.IntRows, k)
	s.Boundary.MulMatScatterPar(yk, xk, s.BndRows, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			if got := yk[i*k+j]; math.Float64bits(got) != math.Float64bits(want[j][i]) {
				t.Fatalf("MulMatScatterPar column %d row %d = %x, MulVec %x", j, i, got, want[j][i])
			}
		}
	}
}
