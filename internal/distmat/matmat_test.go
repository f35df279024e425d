package distmat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
)

// TestMatMatBitwiseMatVec is the blocked halo-exchange contract: column j of
// a width-k MatMat must be bitwise identical to a solo MatVec of that
// column — same partial sums, same retention contents — on every transport.
func TestMatMatBitwiseMatVec(t *testing.T) {
	a := matgen.Poisson2D(14, 11)
	const ranks, phi, k = 4, 2, 5
	p := partition.NewBlockRow(a.Rows, ranks)
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, a.Rows)
		for i := range cols[j] {
			cols[j][i] = math.Sin(float64(i)*0.37+float64(j)) + 0.1*float64(j)
		}
	}
	for _, tr := range []string{cluster.TransportChan, cluster.TransportChaos, cluster.TransportNet} {
		t.Run(tr, func(t *testing.T) {
			// Solo reference: per-column MatVec on its own runtime.
			want := make([][][]float64, k) // [col][pos]local
			for j := range want {
				want[j] = make([][]float64, ranks)
			}
			for j := 0; j < k; j++ {
				j := j
				tp, err := cluster.NewTransport(tr, 1)
				if err != nil {
					t.Fatal(err)
				}
				rt := cluster.New(ranks, cluster.WithTransport(tp))
				if err := rt.Run(func(c *cluster.Comm) error {
					e := WorldEnv(c)
					lo, hi := p.Range(e.Pos)
					m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
					if err != nil {
						return err
					}
					x := distribute(cols[j], p, e.Pos)
					y := NewVector(p, e.Pos)
					for iter := 0; iter < 3; iter++ {
						if err := m.MatVec(e, y, x, iter); err != nil {
							return err
						}
					}
					want[j][e.Pos] = append([]float64(nil), y.Local...)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}

			// Blocked: one width-k MatMat per iteration on one runtime.
			tp, err := cluster.NewTransport(tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			rt := cluster.New(ranks, cluster.WithTransport(tp))
			if err := rt.Run(func(c *cluster.Comm) error {
				e := WorldEnv(c)
				lo, hi := p.Range(e.Pos)
				m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
				if err != nil {
					return err
				}
				m.SetBlockWidth(k)
				x := make([]Vector, k)
				y := make([]Vector, k)
				for j := 0; j < k; j++ {
					x[j] = distribute(cols[j], p, e.Pos)
					y[j] = NewVector(p, e.Pos)
				}
				for iter := 0; iter < 3; iter++ {
					if err := m.MatMat(e, y, x, iter); err != nil {
						return err
					}
				}
				for j := 0; j < k; j++ {
					for i := range y[j].Local {
						if y[j].Local[i] != want[j][e.Pos][i] {
							return fmt.Errorf("pos %d col %d row %d: MatMat %x, MatVec %x",
								e.Pos, j, lo+i, y[j].Local[i], want[j][e.Pos][i])
						}
					}
				}
				// The width-k retention must answer recovery reads with the
				// same values the halo carried, k-strided per index.
				newest, _ := m.Ret.Generations()
				if newest != 2 {
					return fmt.Errorf("pos %d: newest retained generation %d, want 2", e.Pos, newest)
				}
				for src := 0; src < ranks; src++ {
					idx := m.Ret.IndicesFrom(src)
					if len(idx) == 0 {
						continue
					}
					vals, err := retained(m, 2, src)
					if err != nil {
						return err
					}
					for i, g := range idx {
						for j := 0; j < k; j++ {
							if vals[i*k+j] != cols[j][g] {
								return fmt.Errorf("pos %d retention src %d idx %d col %d: %x, want %x",
									e.Pos, src, g, j, vals[i*k+j], cols[j][g])
							}
						}
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRetentionIndexSharedAcrossForks: the retention index is the receive
// lists NewMatrix builds once. Every Fork and every SetBlockWidth gets an
// empty store over those same lists — no per-fork or per-width index, a
// width change costs a few words — and the store still answers recovery
// reads with the values the halo carried, at every width.
func TestRetentionIndexSharedAcrossForks(t *testing.T) {
	a := matgen.CircuitLike(600, 3, 0.5, 4)
	const ranks, phi = 4, 2
	p := partition.NewBlockRow(a.Rows, ranks)
	mats := make([]*Matrix, ranks)
	runSPMD(t, ranks, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		if err != nil {
			return err
		}
		mats[e.Pos] = m
		for _, k := range []int{1, 3, 16, 3} {
			f := m.Fork()
			f.SetBlockWidth(k)
			if f.Ret == m.Ret || f.Ret.Width() != k {
				return fmt.Errorf("pos %d width %d: the fork's store is not its own width-%d store", e.Pos, k, k)
			}
			cols := make([][]float64, k)
			x, y := make([]Vector, k), make([]Vector, k)
			for j := range cols {
				cols[j] = make([]float64, a.Rows)
				for i := range cols[j] {
					cols[j][i] = math.Sin(float64(i*(j+1)+k)) + float64(j)
				}
				x[j], y[j] = distribute(cols[j], p, e.Pos), NewVector(p, e.Pos)
			}
			if err := f.MatMat(e, y, x, 0); err != nil {
				return err
			}
			for src := 0; src < ranks; src++ {
				idx, own := f.Ret.IndicesFrom(src), m.recvLists[src]
				if len(idx) != len(own) || len(idx) > 0 && &idx[0] != &own[0] {
					return fmt.Errorf("pos %d width %d: the store's index from %d is not the session's receive list", e.Pos, k, src)
				}
				if len(idx) == 0 {
					continue
				}
				vals, err := retained(f, 0, src)
				if err != nil {
					return err
				}
				for i, g := range idx {
					for j := 0; j < k; j++ {
						if vals[i*k+j] != cols[j][g] {
							return fmt.Errorf("pos %d width %d src %d idx %d col %d: %v, want %v", e.Pos, k, src, g, j, vals[i*k+j], cols[j][g])
						}
					}
				}
			}
		}
		return nil
	})
	// A width change builds nothing that grows with the receive lists.
	m := mats[1]
	var before, after runtime.MemStats
	const n = 200
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.SetBlockWidth(2 + i%2)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Errorf("SetBlockWidth allocates %d B per call (budget 256 B)", per)
	}
}

// TestSpMVSteadyStateAllocatesNothing: after warm-up, a retaining MatVec, a
// Residual and a retaining width-8 MatMat each run without allocating —
// payloads come from the recycler and go back to it, the scratch keeps its
// size, and the width-1 wrappers' one-element column sets stay on the stack.
// At width 8 the interior SpMMs of ranks 0 and 7 fan out across cores, and
// their row tasks are recycled too.
func TestSpMVSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const ranks, phi, k = 8, 2, 8
	a := matgen.Poisson2D(64, 64)
	p := partition.NewBlockRow(a.Rows, ranks)
	mats := make([]*Matrix, ranks)
	runSPMD(t, ranks, func(c *cluster.Comm) error {
		e := WorldEnv(c)
		lo, hi := p.Range(e.Pos)
		m, err := NewMatrix(e, a.RowBlock(lo, hi), p, phi, 0)
		mats[e.Pos] = m
		return err
	})
	// column returns a distributed vector on pos with deterministic entries.
	column := func(pos, j int) Vector {
		v := NewVector(p, pos)
		for i := range v.Local {
			v.Local[i] = 1 + float64(i*(j+1)%17)/17
		}
		return v
	}
	for name, setup := range map[string]func(e *Env, m *Matrix) func(i int) error{
		"MatVec": func(e *Env, m *Matrix) func(int) error {
			x, y := column(e.Pos, 0), NewVector(p, e.Pos)
			return func(i int) error { return m.MatVec(e, y, x, i) }
		},
		"Residual": func(e *Env, m *Matrix) func(int) error {
			r, b, x := NewVector(p, e.Pos), column(e.Pos, 0), column(e.Pos, 1)
			return func(int) error { return m.Residual(e, r, b, x, -1) }
		},
		"MatMat": func(e *Env, m *Matrix) func(int) error {
			m.SetBlockWidth(k)
			x, y := make([]Vector, k), make([]Vector, k)
			for j := range x {
				x[j], y[j] = column(e.Pos, j), NewVector(p, e.Pos)
			}
			return func(i int) error { return m.MatMat(e, y, x, i) }
		},
	} {
		const warm, rounds = 50, 500
		var before, after runtime.MemStats
		runSPMD(t, ranks, func(c *cluster.Comm) error {
			e := WorldEnv(c)
			round := setup(e, mats[e.Pos].Fork())
			for i := 0; i < warm+rounds; i++ {
				if i == warm {
					// Rank 0 samples between two barriers, so no rank is
					// inside a measured round while the counter is read.
					if err := e.Grp.Barrier(); err != nil {
						return err
					}
					if e.Pos == 0 {
						runtime.ReadMemStats(&before)
					}
					if err := e.Grp.Barrier(); err != nil {
						return err
					}
				}
				if err := round(i); err != nil {
					return err
				}
			}
			if err := e.Grp.Barrier(); err != nil {
				return err
			}
			if e.Pos == 0 {
				runtime.ReadMemStats(&after)
			}
			return nil
		})
		if n := (after.Mallocs - before.Mallocs) / rounds; n != 0 {
			t.Errorf("steady-state %s: %d allocs per round, want 0", name, n)
		}
	}
}

// TestInterleaveRoundTrip: interleave puts entry i of column j at i·k+j for
// every width — groups of four or eight columns, the rest, and tile edges —
// leaves the rows past bs alone, and deinterleave returns exactly the
// columns it was given.
func TestInterleaveRoundTrip(t *testing.T) {
	for _, bs := range []int{1, 7, 64, 130} {
		for k := 1; k <= 21; k++ {
			cols := make([][]float64, k)
			out := make([][]float64, k)
			for j := range cols {
				cols[j] = make([]float64, bs+1) // one spare entry past bs
				out[j] = make([]float64, bs+1)
				for i := range cols[j] {
					cols[j][i] = float64(1000*j + i)
				}
			}
			xb := make([]float64, bs*k)
			interleave(xb, cols, bs)
			for i := 0; i < bs; i++ {
				for j := 0; j < k; j++ {
					if got := xb[i*k+j]; got != cols[j][i] {
						t.Fatalf("bs %d k %d: xb[%d·k+%d] = %v, want %v", bs, k, i, j, got, cols[j][i])
					}
				}
			}
			deinterleave(out, xb, bs)
			for j := range out {
				for i := 0; i < bs; i++ {
					if out[j][i] != cols[j][i] {
						t.Fatalf("bs %d k %d: column %d row %d = %v, want %v", bs, k, j, i, out[j][i], cols[j][i])
					}
				}
				if out[j][bs] != 0 {
					t.Fatalf("bs %d k %d: column %d written past its block", bs, k, j)
				}
			}
		}
	}
}

// defaultNaN is the NaN x86 produces itself, from 0·Inf or Inf-Inf.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// TestInterleaveSIMDMatchesGo holds the SIMD interleave and de-interleave
// to the Go kernels bit for bit: every width 1…40 at every block size
// 0…67 and the workloads' 512 / 1029 / 1500 rows, on ±0, ±Inf, NaN and
// subnormal values, with the buffer's and the columns' entries past the
// block left alone.
func TestInterleaveSIMDMatchesGo(t *testing.T) {
	if interleaveLanes == nil || deinterleaveLanes == nil {
		t.Skip("no SIMD interleave on this platform and build")
	}
	rng := rand.New(rand.NewSource(47))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), defaultNaN, 5e-324, -5e-324, 1e308}
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	column := func(n int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = value()
		}
		return c
	}
	same := func(a, b []float64) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}
	var sizes []int
	for bs := 0; bs <= 67; bs++ {
		sizes = append(sizes, bs)
	}
	sizes = append(sizes, 512, 1029, 1500)
	for _, bs := range sizes {
		for k := 1; k <= 40; k++ {
			cols := make([][]float64, k)
			for j := range cols {
				cols[j] = column(bs)
			}
			// Both buffers carry one spare row past the block.
			junk := column(bs*k + k)
			want, got := append([]float64(nil), junk...), append([]float64(nil), junk...)
			interleaveGo(want, cols, 0, bs)
			interleave(got, cols, bs)
			if i := same(got, want); i >= 0 {
				t.Fatalf("bs %d k %d: interleave buffer[%d] = %#x, Go %#x", bs, k, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			wantCols, gotCols := make([][]float64, k), make([][]float64, k)
			for j := range cols {
				spare := column(bs + 1)
				wantCols[j] = append([]float64(nil), spare...)[:bs]
				gotCols[j] = append([]float64(nil), spare...)[:bs]
			}
			deinterleaveGo(wantCols, junk, 0, bs)
			deinterleave(gotCols, junk, bs)
			for j := range cols {
				if i := same(gotCols[j][:bs+1], wantCols[j][:bs+1]); i >= 0 {
					t.Fatalf("bs %d k %d: deinterleave column %d row %d = %#x, Go %#x", bs, k, j, i,
						math.Float64bits(gotCols[j][i]), math.Float64bits(wantCols[j][i]))
				}
			}
		}
	}
}

// BenchmarkInterleave times one interleave plus one deinterleave of a rank's
// block at the three workloads' block sizes on 8 ranks (Poisson 64²,
// elasticity 14³, the 12 000-row circuit) and k 1 / 8 / 16, on the Go
// kernels and on the SIMD kernels interleave dispatches to where there are
// some.
func BenchmarkInterleave(b *testing.B) {
	type kernels struct {
		name string
		in   func(xb []float64, cols [][]float64, bs int)
		out  func(cols [][]float64, yb []float64, bs int)
	}
	ks := []kernels{{"go",
		func(xb []float64, cols [][]float64, bs int) { interleaveGo(xb, cols, 0, bs) },
		func(cols [][]float64, yb []float64, bs int) { deinterleaveGo(cols, yb, 0, bs) }}}
	if interleaveLanes != nil {
		ks = append(ks, kernels{"simd", interleave, deinterleave})
	}
	for _, bs := range []int{512, 1029, 1500} {
		for _, k := range []int{1, 8, 16} {
			cols := make([][]float64, k)
			for j := range cols {
				cols[j] = make([]float64, bs)
			}
			buf := make([]float64, bs*k)
			for _, kn := range ks {
				b.Run(fmt.Sprintf("%dx%d/%s", bs, k, kn.name), func(b *testing.B) {
					for b.Loop() {
						kn.in(buf, cols, bs)
						kn.out(cols, buf, bs)
					}
				})
			}
		}
	}
}
