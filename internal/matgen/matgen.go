// Package matgen generates symmetric positive-definite (SPD) test matrices
// whose sparsity-pattern classes mirror the SuiteSparse problems used in the
// paper's evaluation (Table 1). The paper's experiments are offline here, so
// each of M1-M8 is substituted by a synthetic generator of the same problem
// class, matched in nnz-per-row density and diagonal-band character; sizes
// are configurable (the paper-scale sizes are available, the default
// experiment scales are smaller).
//
// All generators produce strictly diagonally dominant symmetric matrices,
// hence SPD, with deterministic output for a fixed seed.
package matgen

import (
	"math/rand"

	"repro/internal/sparse"
)

// Poisson2D returns the standard 5-point finite-difference Laplacian on an
// nx x ny grid: 4 on the diagonal, -1 for grid neighbours. SPD, bandwidth nx.
func Poisson2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	a := sparse.NewCOO(n, n)
	id := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			r := id(i, j)
			a.Add(r, r, 4)
			if i > 0 {
				a.Add(r, id(i-1, j), -1)
			}
			if i < nx-1 {
				a.Add(r, id(i+1, j), -1)
			}
			if j > 0 {
				a.Add(r, id(i, j-1), -1)
			}
			if j < ny-1 {
				a.Add(r, id(i, j+1), -1)
			}
		}
	}
	return a.ToCSR()
}

// Triangular2D returns a 7-point 2D triangular-mesh Laplacian (the 5-point
// stencil plus the (+1,-1)/(-1,+1) diagonal neighbours), giving ~7 nnz/row,
// the density class of the paper's M1 (parabolic_fem, 2D FEM).
func Triangular2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	a := sparse.NewCOO(n, n)
	id := func(i, j int) int { return j*nx + i }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			r := id(i, j)
			deg := 0.0
			add := func(ii, jj int) {
				if ii >= 0 && ii < nx && jj >= 0 && jj < ny {
					a.Add(r, id(ii, jj), -1)
					deg++
				}
			}
			add(i-1, j)
			add(i+1, j)
			add(i, j-1)
			add(i, j+1)
			add(i+1, j-1)
			add(i-1, j+1)
			a.Add(r, r, 1.002*deg+0.002) // small margin: strictly SPD, realistic conditioning
		}
	}
	return a.ToCSR()
}

// Poisson3D returns the 7-point finite-difference Laplacian on an
// nx x ny x nz grid. SPD, ~7 nnz/row, bandwidth nx*ny.
func Poisson3D(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	a := sparse.NewCOO(n, n)
	id := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				a.Add(r, r, 6.13)
				add := func(ii, jj, kk int) {
					if ii >= 0 && ii < nx && jj >= 0 && jj < ny && kk >= 0 && kk < nz {
						a.Add(r, id(ii, jj, kk), -1)
					}
				}
				add(i-1, j, k)
				add(i+1, j, k)
				add(i, j-1, k)
				add(i, j+1, k)
				add(i, j, k-1)
				add(i, j, k+1)
			}
		}
	}
	return a.ToCSR()
}

// FEM3D19 returns a 19-point 3D stencil matrix (faces + edge midpoints of
// the 3x3x3 neighbourhood): ~19 nnz/row, matching the density class of the
// paper's M2 (offshore, 3D electromagnetics FEM, ~16 nnz/row).
func FEM3D19(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	a := sparse.NewCOO(n, n)
	id := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				var deg float64
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							man := abs(di) + abs(dj) + abs(dk)
							if man == 0 || man > 2 { // skip self and the 8 corners
								continue
							}
							ii, jj, kk := i+di, j+dj, k+dk
							if ii >= 0 && ii < nx && jj >= 0 && jj < ny && kk >= 0 && kk < nz {
								w := -1.0
								if man == 2 {
									w = -0.5
								}
								a.Add(r, id(ii, jj, kk), w)
								deg -= w
							}
						}
					}
				}
				a.Add(r, r, 1.002*deg+0.002)
			}
		}
	}
	return a.ToCSR()
}

// Elasticity3D returns a 3-dof-per-node elasticity-like SPD matrix on an
// nx x ny x nz grid with the given node stencil (7, 15 or 27 points of the
// 3x3x3 neighbourhood). Each node coupling is a symmetric positive 3x3 block,
// giving roughly 3*stencil nnz per row; stencil=15 matches the paper's
// structural matrices M5-M7 (~42-46 nnz/row) and stencil=27 matches M8
// (audikw_1, ~82 nnz/row).
func Elasticity3D(nx, ny, nz, stencil int, seed int64) *sparse.CSR {
	if stencil != 7 && stencil != 15 && stencil != 27 {
		panic("matgen: Elasticity3D stencil must be 7, 15 or 27")
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := nx * ny * nz
	n := 3 * nodes
	a := sparse.NewCOO(n, n)
	id := func(i, j, k int) int { return (k*ny+j)*nx + i }
	// offDiag returns a deterministic small symmetric 3x3 coupling block.
	offBlock := func() [6]float64 {
		// entries (xx, yy, zz, xy, xz, yz)
		return [6]float64{
			-1 - 0.1*rng.Float64(),
			-1 - 0.1*rng.Float64(),
			-1 - 0.1*rng.Float64(),
			0.2 * (rng.Float64() - 0.5),
			0.2 * (rng.Float64() - 0.5),
			0.2 * (rng.Float64() - 0.5),
		}
	}
	diagAccum := make([]float64, n)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							man := abs(di) + abs(dj) + abs(dk)
							if man == 0 {
								continue
							}
							if stencil == 7 && man > 1 {
								continue
							}
							if stencil == 15 && man > 2 {
								continue
							}
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || ii >= nx || jj < 0 || jj >= ny || kk < 0 || kk >= nz {
								continue
							}
							c := id(ii, jj, kk)
							if c < r {
								continue // handled symmetrically when (c,r) scanned
							}
							b := offBlock()
							scale := 1.0 / float64(man)
							// 3x3 symmetric block between nodes r and c.
							bm := [3][3]float64{
								{b[0] * scale, b[3] * scale, b[4] * scale},
								{b[3] * scale, b[1] * scale, b[5] * scale},
								{b[4] * scale, b[5] * scale, b[2] * scale},
							}
							for x := 0; x < 3; x++ {
								for y := 0; y < 3; y++ {
									if bm[x][y] == 0 {
										continue
									}
									a.Add(3*r+x, 3*c+y, bm[x][y])
									a.Add(3*c+y, 3*r+x, bm[x][y])
									diagAccum[3*r+x] += absF(bm[x][y])
									diagAccum[3*c+y] += absF(bm[x][y])
								}
							}
						}
					}
				}
			}
		}
	}
	for d := 0; d < n; d++ {
		a.Add(d, d, 1.002*diagAccum[d]+0.002) // 0.2% margin: strictly SPD, realistic conditioning
	}
	return a.ToCSR()
}

// CircuitLike returns an irregular graph-Laplacian-like SPD matrix in the
// class of the paper's M3 (G3_circuit): very sparse (~5 nnz/row) with a
// substantial fraction of long-range couplings far from the diagonal, the
// pattern that maximises ESR redundancy overhead (paper Sec. 5 / Table 2).
// longRange in [0,1] is the fraction of edges drawn uniformly over all node
// pairs (the rest connect nearby nodes).
func CircuitLike(n int, avgDeg float64, longRange float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	a := sparse.NewCOO(n, n)
	deg := make([]float64, n)
	edges := int(avgDeg * float64(n) / 2)
	for e := 0; e < edges; e++ {
		u := rng.Intn(n)
		var v int
		if rng.Float64() < longRange {
			v = rng.Intn(n)
		} else {
			// nearby node within a window of ~n/64
			w := n/64 + 2
			v = u + rng.Intn(2*w+1) - w
			if v < 0 {
				v += n
			}
			if v >= n {
				v -= n
			}
		}
		if u == v {
			continue
		}
		wgt := -(0.5 + rng.Float64())
		a.Add(u, v, wgt)
		a.Add(v, u, wgt)
		deg[u] -= wgt
		deg[v] -= wgt
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 1.005*deg[i]+0.02)
	}
	return a.ToCSR()
}

// ThermalMesh returns an unstructured-mesh-like SPD matrix in the class of
// the paper's M4 (thermal2): ~7 nnz/row, mostly banded with mild local
// irregularity produced by replacing a fraction of grid edges with random
// short-range links.
func ThermalMesh(nx, ny, nz int, jitter float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny * nz
	a := sparse.NewCOO(n, n)
	deg := make([]float64, n)
	id := func(i, j, k int) int { return (k*ny+j)*nx + i }
	link := func(u, v int) {
		if u == v || v < 0 || v >= n {
			return
		}
		w := -(0.8 + 0.4*rng.Float64())
		a.Add(u, v, w)
		a.Add(v, u, w)
		deg[u] -= w
		deg[v] -= w
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				r := id(i, j, k)
				// undirected edges to +x, +y, +z neighbours, some jittered
				targets := [][3]int{{i + 1, j, k}, {i, j + 1, k}, {i, j, k + 1}}
				for _, tgt := range targets {
					ii, jj, kk := tgt[0], tgt[1], tgt[2]
					if ii >= nx || jj >= ny || kk >= nz {
						continue
					}
					v := id(ii, jj, kk)
					if rng.Float64() < jitter {
						// rewire to a random node within a local window
						w := nx * ny / 2
						if w < 4 {
							w = 4
						}
						v = r + 1 + rng.Intn(w)
						if v >= n {
							v = n - 1
						}
					}
					link(r, v)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 1.002*deg[i]+0.002)
	}
	return a.ToCSR()
}

// BandedRandom returns an SPD matrix with a random pattern confined to a band
// of the given half-width around the diagonal, with approximately nnzPerRow
// off-diagonal entries per row. Used by the Sec. 5 sparsity studies, where
// the extra-latency condition depends on whether the band covers the backup
// distance ceil(phi*n/(2N)).
func BandedRandom(n, halfBand int, nnzPerRow float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	a := sparse.NewCOO(n, n)
	deg := make([]float64, n)
	edges := int(nnzPerRow * float64(n) / 2)
	for e := 0; e < edges; e++ {
		u := rng.Intn(n)
		d := 1 + rng.Intn(halfBand)
		v := u + d
		if v >= n {
			v = u - d
			if v < 0 {
				continue
			}
		}
		w := -(0.5 + rng.Float64())
		a.Add(u, v, w)
		a.Add(v, u, w)
		deg[u] -= w
		deg[v] -= w
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, deg[i]+1.0)
	}
	return a.ToCSR()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
