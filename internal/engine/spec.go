package engine

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/matgen"
	"repro/internal/mmio"
	"repro/internal/sparse"
	"repro/internal/xerr"
)

// MatrixSpec names the system matrix of a job: either a generator from the
// matgen catalogue (by name, with numeric parameters) or literal
// MatrixMarket bytes. Exactly one of Generator / MatrixMarket must be set.
type MatrixSpec struct {
	// Generator is a generator name: "poisson2d", "poisson3d",
	// "triangular2d", "fem3d19", "elasticity3d", "circuit", "thermalmesh",
	// "banded", or a catalogue id "M1".."M8".
	Generator string `json:"generator,omitempty"`
	// Params parameterizes the generator; missing keys take the defaults
	// documented per generator in Build. Integer-valued parameters (sizes,
	// seeds, stencils) are truncated from the float64.
	Params map[string]float64 `json:"params,omitempty"`
	// MatrixMarket is a literal matrix in MatrixMarket coordinate format
	// (base64-encoded in JSON).
	MatrixMarket []byte `json:"matrix_market,omitempty"`
}

// param returns the named parameter or its default.
func (ms MatrixSpec) param(name string, def float64) float64 {
	if v, ok := ms.Params[name]; ok {
		return v
	}
	return def
}

func (ms MatrixSpec) iparam(name string, def int) int {
	return int(ms.param(name, float64(def)))
}

// maxGenRows and maxGenNNZ bound generator-built problem sizes: one
// network-submitted job must not be able to wedge a worker or exhaust
// memory during matrix generation (which runs outside the solver's
// cancellation polling). The bounds comfortably cover the paper-scale
// catalogue (~1.6M rows, ~78M nonzeros).
const (
	maxGenRows = 1 << 22
	maxGenNNZ  = 1 << 27
)

// checkBounds validates generator parameters cheaply, without building
// anything: every dimension positive and the resulting row count within
// maxGenRows. Called at submission time (JobSpec.Validate) and again in
// Build. Unknown generators are accepted here and rejected by Build.
func (ms MatrixSpec) checkBounds() error {
	for name, v := range ms.Params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("engine: matrix param %q is not finite", name)
		}
	}
	// dims validates each named dimension and bounds both the row count
	// (dofPerNode * product of dims) and the estimated nonzero count
	// (rows * nnzPerRow, the generator's stencil width).
	dims := func(names []string, defs []int, dofPerNode, nnzPerRow float64) error {
		rows := dofPerNode
		for i, name := range names {
			def := defs[i]
			if def < 0 { // inherit the first dimension's value
				def = ms.iparam(names[0], defs[0])
			}
			d := ms.iparam(name, def)
			if d < 1 {
				return fmt.Errorf("engine: matrix param %q = %d must be >= 1", name, d)
			}
			rows *= float64(d)
			if rows > maxGenRows {
				return fmt.Errorf("engine: generated matrix would exceed %d rows", maxGenRows)
			}
		}
		if rows*nnzPerRow > maxGenNNZ {
			return fmt.Errorf("engine: generated matrix would exceed %d nonzeros", maxGenNNZ)
		}
		return nil
	}
	if len(ms.MatrixMarket) > 0 {
		return ms.checkMMBounds()
	}
	switch ms.Generator {
	case "poisson2d":
		return dims([]string{"nx", "ny"}, []int{64, -1}, 1, 5)
	case "triangular2d":
		return dims([]string{"nx", "ny"}, []int{64, -1}, 1, 7)
	case "poisson3d":
		return dims([]string{"nx", "ny", "nz"}, []int{16, -1, -1}, 1, 7)
	case "fem3d19":
		return dims([]string{"nx", "ny", "nz"}, []int{12, -1, -1}, 1, 19)
	case "thermalmesh":
		return dims([]string{"nx", "ny", "nz"}, []int{12, -1, -1}, 1, 7)
	case "elasticity3d":
		s := ms.iparam("stencil", 15)
		if s != 7 && s != 15 && s != 27 {
			return fmt.Errorf("engine: elasticity3d stencil %d not in {7, 15, 27}", s)
		}
		// Each row couples to ~stencil neighbor nodes x 3 dof.
		return dims([]string{"nx", "ny", "nz"}, []int{10, -1, -1}, 3, float64(3*s))
	case "circuit":
		if err := dims([]string{"n"}, []int{4096}, 1, 1); err != nil {
			return err
		}
		if nnz := ms.param("avgdeg", 2.9) * float64(ms.iparam("n", 4096)); nnz > maxGenNNZ {
			return fmt.Errorf("engine: circuit matrix would exceed %d nonzeros", maxGenNNZ)
		}
		return nil
	case "banded":
		if err := dims([]string{"n"}, []int{4096}, 1, 1); err != nil {
			return err
		}
		if hb := ms.iparam("halfband", 16); hb < 1 {
			return fmt.Errorf("engine: banded halfband %d must be >= 1", hb)
		}
		if nnz := ms.param("nnzperrow", 8) * float64(ms.iparam("n", 4096)); nnz > maxGenNNZ {
			return fmt.Errorf("engine: banded matrix would exceed %d nonzeros", maxGenNNZ)
		}
		return nil
	}
	return nil
}

// Build materializes the matrix.
//
// Generator parameter names (all numeric; defaults in parentheses):
//
//	poisson2d:    nx (64), ny (nx)
//	poisson3d:    nx (16), ny (nx), nz (nx)
//	triangular2d: nx (64), ny (nx)
//	fem3d19:      nx (12), ny (nx), nz (nx)
//	elasticity3d: nx (10), ny (nx), nz (nx), stencil (15), seed (1)
//	circuit:      n (4096), avgdeg (2.9), longrange (0.35), seed (1)
//	thermalmesh:  nx (12), ny (nx), nz (nx), jitter (0.15), seed (1)
//	banded:       n (4096), halfband (16), nnzperrow (8), seed (1)
//	M1..M8:       scale (0 = tiny, 1 = small, 2 = paper)
func (ms MatrixSpec) Build() (*sparse.CSR, error) {
	switch {
	case len(ms.MatrixMarket) > 0 && ms.Generator != "":
		return nil, fmt.Errorf("engine: matrix spec sets both generator and matrix_market")
	case len(ms.MatrixMarket) > 0:
		if err := ms.checkMMBounds(); err != nil {
			return nil, err
		}
		m, err := mmio.ReadCSR(bytes.NewReader(ms.MatrixMarket))
		if err != nil {
			return nil, err
		}
		// MatrixMarket parses "nan"/"inf" as valid floats; a single such
		// entry poisons the entire solve's results, so fail the job with a
		// clear error instead.
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for k, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("engine: matrix entry (%d,%d) is not finite", i+1, cols[k]+1)
				}
			}
		}
		return m, nil
	case ms.Generator == "":
		return nil, fmt.Errorf("engine: empty matrix spec")
	}
	if err := ms.checkBounds(); err != nil {
		return nil, err
	}
	switch ms.Generator {
	case "poisson2d":
		nx := ms.iparam("nx", 64)
		return checkDims(matgen.Poisson2D(nx, ms.iparam("ny", nx)))
	case "poisson3d":
		nx := ms.iparam("nx", 16)
		return checkDims(matgen.Poisson3D(nx, ms.iparam("ny", nx), ms.iparam("nz", nx)))
	case "triangular2d":
		nx := ms.iparam("nx", 64)
		return checkDims(matgen.Triangular2D(nx, ms.iparam("ny", nx)))
	case "fem3d19":
		nx := ms.iparam("nx", 12)
		return checkDims(matgen.FEM3D19(nx, ms.iparam("ny", nx), ms.iparam("nz", nx)))
	case "elasticity3d":
		nx := ms.iparam("nx", 10)
		return checkDims(matgen.Elasticity3D(nx, ms.iparam("ny", nx), ms.iparam("nz", nx),
			ms.iparam("stencil", 15), int64(ms.iparam("seed", 1))))
	case "circuit":
		return checkDims(matgen.CircuitLike(ms.iparam("n", 4096),
			ms.param("avgdeg", 2.9), ms.param("longrange", 0.35), int64(ms.iparam("seed", 1))))
	case "thermalmesh":
		nx := ms.iparam("nx", 12)
		return checkDims(matgen.ThermalMesh(nx, ms.iparam("ny", nx), ms.iparam("nz", nx),
			ms.param("jitter", 0.15), int64(ms.iparam("seed", 1))))
	case "banded":
		return checkDims(matgen.BandedRandom(ms.iparam("n", 4096), ms.iparam("halfband", 16),
			ms.param("nnzperrow", 8), int64(ms.iparam("seed", 1))))
	}
	if entry, err := matgen.ByID(ms.Generator); err == nil {
		scale := matgen.Scale(ms.iparam("scale", int(matgen.ScaleTiny)))
		if scale < matgen.ScaleTiny || scale > matgen.ScalePaper {
			return nil, fmt.Errorf("engine: catalogue scale %d out of range", scale)
		}
		return checkDims(entry.Build(scale))
	}
	return nil, fmt.Errorf("engine: unknown matrix generator %q", ms.Generator)
}

// checkMMBounds scans only the MatrixMarket banner and size line and
// rejects declared dimensions beyond maxGenRows, BEFORE mmio.ReadCSR
// allocates O(rows) memory from the attacker-controlled header. Parse
// errors are left for ReadCSR to report properly.
func (ms MatrixSpec) checkMMBounds() error {
	rows, cols, _, err := mmio.ReadDims(bytes.NewReader(ms.MatrixMarket))
	if err != nil {
		return nil // malformed header/size line: ReadCSR reports it
	}
	if rows > maxGenRows || cols > maxGenRows {
		return fmt.Errorf("engine: matrix_market declares %dx%d, beyond the %d-row limit", rows, cols, maxGenRows)
	}
	return nil
}

// checkDims guards against degenerate generator output (e.g. zero-size
// requests truncated from negative params).
func checkDims(m *sparse.CSR) (*sparse.CSR, error) {
	if m == nil || m.Rows <= 0 || m.Cols <= 0 {
		return nil, fmt.Errorf("engine: generator produced an empty matrix")
	}
	return m, nil
}

// JobSpec is a complete solve request: the system, the right-hand side, the
// solver configuration, and scheduling limits. It round-trips through JSON
// for the esrd daemon.
type JobSpec struct {
	// Matrix names the system matrix inline. Leave it zero when MatrixID is
	// set (it then serializes as an empty object: encoding/json has no
	// emptiness notion for structs).
	Matrix MatrixSpec `json:"matrix"`
	// MatrixID references a matrix previously registered with the engine's
	// matrix store (POST /v1/matrices on the daemon): the system is
	// materialized once at registration and reused by every job referencing
	// it, and jobs agreeing on the prep-scoped config fields also share the
	// prepared-solver session, whatever their run policy. Exactly one of Matrix and MatrixID must be
	// set.
	MatrixID string `json:"matrix_id,omitempty"`
	// RHS is the right-hand side; nil selects the all-ones vector of
	// matching length (the paper's b).
	RHS []float64 `json:"rhs,omitempty"`
	// RHSBatch submits several right-hand sides as one job, solved through
	// the blocked multi-RHS path with up to Config.BlockSize columns in
	// flight, as two concurrent lockstep groups (per-column results are
	// bitwise identical to submitting each RHS alone). Mutually exclusive with RHS. The result's XS/Results are
	// aligned with this batch.
	RHSBatch [][]float64 `json:"bs,omitempty"`
	// Config is the solver configuration (esr.Config).
	Config Config `json:"config"`
	// TimeoutMillis, when > 0, bounds the solve's wall-clock time from the
	// moment a worker picks the job up; expiry fails the job.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// KeepSolution retains the solution vector X in the result store; by
	// default only convergence statistics are kept (X can be large and the
	// store is in-memory).
	KeepSolution bool `json:"keep_solution,omitempty"`
}

// InvalidRHSError reports a structurally invalid right-hand side in a
// batch, naming the offending column so a client submitting hundreds of
// vectors knows which one to fix. Elem is the offending element for a
// non-finite value, or -1 for a length mismatch (Len vs Want).
type InvalidRHSError struct {
	// Index is the column's position in the batch.
	Index int
	// Elem is the offending element index, -1 for a length mismatch.
	Elem int
	// Len and Want describe a length mismatch (Elem == -1).
	Len, Want int
}

// Error implements the error interface.
func (e *InvalidRHSError) Error() string {
	if e.Elem < 0 {
		return fmt.Sprintf("engine: rhs batch[%d] has length %d, want %d", e.Index, e.Len, e.Want)
	}
	return fmt.Sprintf("engine: rhs batch[%d][%d] is not finite", e.Index, e.Elem)
}

// Is claims the InvalidArgument class, so errors.Is(err, xerr.InvalidArgument)
// holds without wrapping.
func (e *InvalidRHSError) Is(target error) bool { return target == xerr.InvalidArgument }

// validateBatch fail-fast checks every column of a right-hand-side batch —
// length against want (when want > 0, else against the first column) and
// element finiteness — BEFORE any solve launches, returning a typed
// *InvalidRHSError naming the offending column. Shared by JobSpec.Validate
// and the prepared session's batch entry points.
func validateBatch(batch [][]float64, want int) error {
	for i, b := range batch {
		w := want
		if w <= 0 {
			w = len(batch[0])
		}
		if len(b) != w || len(b) == 0 {
			// An empty column can never match any system; reported against
			// want so "length 0, want 0" never reads as consistent.
			return &InvalidRHSError{Index: i, Elem: -1, Len: len(b), Want: w}
		}
		for p, v := range b {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &InvalidRHSError{Index: i, Elem: p}
			}
		}
	}
	return nil
}

// Validate performs the cheap structural checks done at submission time
// (before a worker spends time materializing the matrix), the Config as
// given; Engine.Submit checks it with the daemon defaults applied. Every
// rejection carries the xerr.InvalidArgument class.
func (s JobSpec) Validate() error {
	return xerr.Ensure(xerr.InvalidArgument, s.validate())
}

func (s JobSpec) validate() error {
	sources := 0
	if s.Matrix.Generator != "" {
		sources++
	}
	if len(s.Matrix.MatrixMarket) > 0 {
		sources++
	}
	if s.MatrixID != "" {
		sources++
	}
	switch {
	case sources == 0:
		return fmt.Errorf("engine: job needs a matrix (generator, matrix_market, or matrix_id)")
	case sources > 1:
		return fmt.Errorf("engine: job sets more than one matrix source (generator, matrix_market, matrix_id)")
	}
	if s.MatrixID == "" {
		if err := s.Matrix.checkBounds(); err != nil {
			return err
		}
	}
	if s.TimeoutMillis < 0 {
		return fmt.Errorf("engine: negative timeout")
	}
	for i, v := range s.RHS {
		// Non-finite right-hand sides poison the whole solve with NaN
		// results that no JSON surface can encode; reject at the door.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("engine: rhs[%d] is not finite", i)
		}
	}
	if len(s.RHSBatch) > 0 {
		if len(s.RHS) > 0 {
			return fmt.Errorf("engine: job sets both rhs and a rhs batch")
		}
		if err := validateBatch(s.RHSBatch, 0); err != nil {
			return err
		}
	}
	return s.Config.Validate()
}

// Materialize builds the concrete system (matrix and right-hand side).
func (s JobSpec) Materialize() (*sparse.CSR, []float64, error) {
	a, err := s.Matrix.Build()
	if err != nil {
		return nil, nil, err
	}
	b := s.RHS
	if b == nil {
		b = make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
	}
	if len(b) != a.Rows {
		return nil, nil, fmt.Errorf("engine: rhs length %d != matrix rows %d", len(b), a.Rows)
	}
	return a, b, nil
}
