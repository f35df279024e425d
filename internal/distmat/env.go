// Package distmat implements block-row distributed matrices and vectors on
// top of the cluster runtime: the layer the paper gets from PETSc. It
// provides the distributed SpMV with PETSc-style generalized scatter (halo
// exchange), extended with the ESR redundancy protocol: the R^c_ik top-up
// elements piggyback on halo messages where possible and the retention store
// keeps the two most recent search-direction generations (paper Secs. 2-4).
//
// All operations work over an Env: one rank's view of the runtime, every
// rank taking part. The reconstruction's x-system operator A_{If,If}
// (paper Sec. 4.1) is one CSR that Restrict assembles from the failed ranks'
// own rows, with no messages, their survivor-owned columns dropped.
package distmat

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/vec"
)

// Env is a rank's communication environment: its communicator, its rank,
// and the collectives over every rank of the runtime. Pos, the rank, is what
// the distributed objects living in the Env are indexed by.
type Env struct {
	// C is the underlying per-rank communicator.
	C *cluster.Comm
	// Pos is the calling rank.
	Pos int
	// Grp provides collectives over every rank.
	Grp *cluster.Group
}

// WorldEnv returns the environment of the calling rank.
func WorldEnv(c *cluster.Comm) *Env {
	return &Env{C: c, Pos: c.Rank(), Grp: c.World()}
}

// Size returns the number of participating ranks.
func (e *Env) Size() int { return e.C.Size() }

// Vector is the local block of a distributed vector under a block-row
// partition of the index space over the ranks.
type Vector struct {
	P     partition.Partition
	Pos   int
	Local []float64
}

// NewVector allocates the local block of a distributed vector for rank
// pos.
func NewVector(p partition.Partition, pos int) Vector {
	return Vector{P: p, Pos: pos, Local: make([]float64, p.Size(pos))}
}

// Clone returns a deep copy of the local block.
func (v Vector) Clone() Vector {
	out := v
	out.Local = append([]float64(nil), v.Local...)
	return out
}

// Dot returns the global inner product a'b, reduced over the Env with a
// deterministic tree order.
func Dot(e *Env, a, b Vector) (float64, error) {
	if len(a.Local) != len(b.Local) {
		return 0, fmt.Errorf("distmat: Dot local length mismatch")
	}
	return e.Grp.AllreduceScalar(cluster.OpSum, vec.Dot(a.Local, b.Local))
}

// Norm2 returns the global Euclidean norm of v.
func Norm2(e *Env, v Vector) (float64, error) {
	tot, err := e.Grp.AllreduceScalar(cluster.OpSum, vec.Nrm2Sq(v.Local))
	if err != nil {
		return 0, err
	}
	if tot < 0 {
		tot = 0 // tiny negative sums can appear from reductions of rounding
	}
	return math.Sqrt(tot), nil
}

// Gather assembles the full vectors of a block of distributed columns, all on
// one partition, at rank 0 (results and verification; not used in the
// steady-state solver loop). Every other rank sends the local blocks of all
// its columns in one message and returns nil: nothing of solution size
// travels back out, and a width-k block costs one message per rank, not k.
func Gather(e *Env, vs []Vector) ([][]float64, error) {
	k := len(vs)
	if k == 0 {
		return nil, nil
	}
	p, bs := vs[0].P, len(vs[0].Local)
	mine := vs[0].Local
	if k > 1 {
		// Column-major: the k local blocks back to back.
		mine = e.C.GetFloats(k * bs)
		defer e.C.PutFloats(mine)
		for c, v := range vs {
			copy(mine[c*bs:(c+1)*bs], v.Local)
		}
	}
	parts, err := e.Grp.Gatherv(mine)
	if err != nil || parts == nil {
		return nil, err
	}
	out := make([][]float64, k)
	for c := range out {
		out[c] = make([]float64, p.N())
	}
	for q, part := range parts {
		lo, hi := p.Range(q)
		if len(part) != k*(hi-lo) {
			return nil, fmt.Errorf("distmat: Gather got %d values from rank %d, want %d", len(part), q, k*(hi-lo))
		}
		for c := range out {
			copy(out[c][lo:hi], part[c*(hi-lo):])
		}
		if q > 0 {
			e.Grp.Recycle(part)
		}
	}
	return out, nil
}
