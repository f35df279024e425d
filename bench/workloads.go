package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/sparse"
)

// The solver configuration every workload runs: the repo's reference
// configuration and the paper's tolerances. Everything not set here is left
// on the library and daemon defaults, so a changed default moves a number.
const (
	ranks    = 8
	phi      = 3
	tol      = 1e-8
	localTol = 1e-14
	// rhsNoise keeps the seeded right-hand sides within 1e-4 of the all-ones
	// vector: every seed gives different inputs, but the iteration count -
	// and with it the work per solve - stays the same, so runs with
	// different seeds measure the same thing.
	rhsNoise = 1e-4
)

// workload is one input problem. Each run drives it through the library
// (setup, reference/protected/recovered solves, batches) and through a live
// esrd, so every end-to-end metric is measured on every workload.
type workload struct {
	name string
	why  string
	// matrix tells both the bench and esrd how to build the system; the
	// generator seeds inside are fixed so a workload keeps its identity
	// across -seed values.
	matrix, tiny engine.MatrixSpec
	// batchK is the number of right-hand sides per SolveBatch call, sized so
	// a call takes a few hundred milliseconds.
	batchK int
}

var workloads = []workload{
	{
		name:   "poisson-latency",
		why:    "Poisson2D 64x64, 512 rows/rank: ~150us iterations, so allreduce, halo hand-off, runtime spawn and per-solve/per-job fixed cost dominate; protection is dear, kernels are small",
		matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 64}},
		tiny:   engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16}},
		batchK: 64,
	},
	{
		name:   "elasticity-kernel",
		why:    "catalogue M8's generator (27-point elasticity, 68 nnz/row) on a 14^3 grid, n 8232: few heavy iterations, so SpMV, ILU(0) sweeps and factorisation dominate; protection is nearly free, recovery is dear",
		matrix: engine.MatrixSpec{Generator: "elasticity3d", Params: map[string]float64{"nx": 14, "stencil": 27, "seed": 8}},
		tiny:   engine.MatrixSpec{Generator: "elasticity3d", Params: map[string]float64{"nx": 6, "stencil": 27, "seed": 8}},
		batchK: 16,
	},
	{
		name:   "circuit-irregular",
		why:    "catalogue M3's generator (circuit graph, 35% long-range links), n 12000: every rank is a halo neighbour of every other - 12x Poisson's halo volume, 1.6x its messages, the largest Eqn. 6 top-ups",
		matrix: engine.MatrixSpec{Generator: "circuit", Params: map[string]float64{"n": 12000, "avgdeg": 2.9, "longrange": 0.35, "seed": 3}},
		tiny:   engine.MatrixSpec{Generator: "circuit", Params: map[string]float64{"n": 600, "avgdeg": 2.9, "longrange": 0.35, "seed": 3}},
		batchK: 16,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) spec(tiny bool) engine.MatrixSpec {
	if tiny {
		return w.tiny
	}
	return w.matrix
}

// inputs is everything a run derives from -seed. The programs under test
// see only these values, never the seed.
type inputs struct {
	rhs [][]float64 // pool of right-hand sides, cycled by every phase
	// firstVictim is where the rotation of the three failing ranks starts.
	// Solves cycle through all eight start positions, because the cost of a
	// reconstruction depends on which ranks fail (a wrapped-around set is
	// two separate subdomains): the seed decides the order, not the mix.
	firstVictim int
	jobRng      *rand.Rand // shuffles the esrd job order
}

func newInputs(seed int64, n, pool int) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{rhs: make([][]float64, pool), firstVictim: rng.Intn(ranks)}
	for k := range in.rhs {
		in.rhs[k] = seededRHS(rng, n)
	}
	in.jobRng = rand.New(rand.NewSource(rng.Int63()))
	return in
}

func seededRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + rhsNoise*(2*rng.Float64()-1)
	}
	return b
}

func ones(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

// problem is one run's system with its seeded inputs and its answer checks.
type problem struct {
	a     *sparse.CSR
	in    inputs
	check checker
	tally *tally
	// failIter is 50% of the reference iteration count, where the three
	// simultaneous failures strike; known once a reference solve has run.
	failIter int
}

// tally counts operations attempted and failed; the first few failure
// reasons are kept for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 10 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

// checker verifies answers independently of the solver: it recomputes the
// true residual with its own copy of the matrix. With sabotage set it checks
// against a wrong right-hand side instead, which must make every run fail -
// the proof that the checks can fail at all.
type checker struct {
	sabotage bool
}

// residual checks ||b - A x|| / ||b|| <= 10 tol.
func (c checker) residual(a *sparse.CSR, x, b []float64) error {
	if len(x) != a.Rows {
		return fmt.Errorf("solution has %d entries, want %d", len(x), a.Rows)
	}
	ax := make([]float64, a.Rows)
	a.MulVec(ax, x)
	var rr, bb float64
	for i, bi := range b {
		if c.sabotage {
			bi = -bi
		}
		d := bi - ax[i]
		rr += d * d
		bb += bi * bi
	}
	if rel := math.Sqrt(rr / bb); !(rel <= 10*tol) {
		return fmt.Errorf("true residual %.3e above %.1e", rel, 10*tol)
	}
	return nil
}

// bitsHash fingerprints a vector bit for bit.
func bitsHash(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// sameBits reports whether two vectors are bit-identical.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
