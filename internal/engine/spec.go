package engine

import (
	"bytes"
	"fmt"
	"math"
	"slices"

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
	// Params parameterizes the generator; missing keys take the defaults of
	// its entry in generators. Integer-valued parameters (sizes,
	// seeds, stencils) are truncated from the float64.
	Params map[string]float64 `json:"params,omitempty"`
	// MatrixMarket is a literal matrix in MatrixMarket coordinate format
	// (base64-encoded in JSON).
	MatrixMarket []byte `json:"matrix_market,omitempty"`
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

// genParam is one generator parameter and its default; a negative default
// inherits the first parameter's value (ny and nz default to nx).
type genParam struct {
	name string
	def  float64
}

// generator is one entry of the table checkBounds and Build both read. Each
// function takes the parameters resolved in table order: the first dims are
// grid dimensions (each >= 1) of dof rows per node, nnzPerRow bounds the
// nonzeros (nil: the catalogue's own sizes), check holds any further rule.
type generator struct {
	params    []genParam
	dims      int
	dof       float64
	nnzPerRow func(p []float64) float64
	check     func(p []float64) error
	build     func(p []float64) *sparse.CSR
}

// generators is every generator a MatrixSpec can name: the matgen
// families, and the catalogue ids M1..M8 (scale 0 = tiny, 1 = small, 2 = paper).
var generators = func() map[string]generator {
	width := func(n float64) func([]float64) float64 { return func([]float64) float64 { return n } }
	xy := []genParam{{"nx", 64}, {"ny", -1}}
	xyz := func(def float64, more ...genParam) []genParam {
		return append([]genParam{{"nx", def}, {"ny", -1}, {"nz", -1}}, more...)
	}
	g := map[string]generator{
		"poisson2d": {params: xy, dims: 2, dof: 1, nnzPerRow: width(5),
			build: func(p []float64) *sparse.CSR { return matgen.Poisson2D(int(p[0]), int(p[1])) }},
		"triangular2d": {params: xy, dims: 2, dof: 1, nnzPerRow: width(7),
			build: func(p []float64) *sparse.CSR { return matgen.Triangular2D(int(p[0]), int(p[1])) }},
		"poisson3d": {params: xyz(16), dims: 3, dof: 1, nnzPerRow: width(7),
			build: func(p []float64) *sparse.CSR { return matgen.Poisson3D(int(p[0]), int(p[1]), int(p[2])) }},
		"fem3d19": {params: xyz(12), dims: 3, dof: 1, nnzPerRow: width(19),
			build: func(p []float64) *sparse.CSR { return matgen.FEM3D19(int(p[0]), int(p[1]), int(p[2])) }},
		"thermalmesh": {params: xyz(12, genParam{"jitter", 0.15}, genParam{"seed", 1}), dims: 3, dof: 1, nnzPerRow: width(7),
			build: func(p []float64) *sparse.CSR {
				return matgen.ThermalMesh(int(p[0]), int(p[1]), int(p[2]), p[3], int64(p[4]))
			}},
		// Each row couples to ~stencil neighbor nodes x 3 dof.
		"elasticity3d": {params: xyz(10, genParam{"stencil", 15}, genParam{"seed", 1}), dims: 3, dof: 3,
			nnzPerRow: func(p []float64) float64 { return float64(3 * int(p[3])) },
			check:     func(p []float64) error { return oneOf("elasticity3d stencil", int(p[3]), 7, 15, 27) },
			build: func(p []float64) *sparse.CSR {
				return matgen.Elasticity3D(int(p[0]), int(p[1]), int(p[2]), int(p[3]), int64(p[4]))
			}},
		"circuit": {params: []genParam{{"n", 4096}, {"avgdeg", 2.9}, {"longrange", 0.35}, {"seed", 1}}, dims: 1, dof: 1,
			nnzPerRow: func(p []float64) float64 { return p[1] },
			build:     func(p []float64) *sparse.CSR { return matgen.CircuitLike(int(p[0]), p[1], p[2], int64(p[3])) }},
		"banded": {params: []genParam{{"n", 4096}, {"halfband", 16}, {"nnzperrow", 8}, {"seed", 1}}, dims: 1, dof: 1,
			nnzPerRow: func(p []float64) float64 { return p[2] },
			check: func(p []float64) error {
				if int(p[1]) < 1 {
					return fmt.Errorf("engine: banded halfband %d must be >= 1", int(p[1]))
				}
				return nil
			},
			build: func(p []float64) *sparse.CSR { return matgen.BandedRandom(int(p[0]), int(p[1]), p[2], int64(p[3])) }},
	}
	for _, entry := range matgen.Catalogue() {
		g[entry.ID] = generator{params: []genParam{{"scale", float64(matgen.ScaleTiny)}},
			check: func(p []float64) error { return oneOf("catalogue scale", int(p[0]), 0, 1, 2) },
			build: func(p []float64) *sparse.CSR { return entry.Build(matgen.Scale(int(p[0]))) }}
	}
	return g
}()

// oneOf refuses a value outside its allowed set.
func oneOf(what string, v int, allowed ...int) error {
	if !slices.Contains(allowed, v) {
		return fmt.Errorf("engine: %s %d not in %v", what, v, allowed)
	}
	return nil
}

// resolve looks the spec's generator up and returns it with its parameters
// in table order, defaults filled in, after checking them cheaply: every
// value finite, every dimension >= 1, the row and nonzero counts within
// maxGenRows and maxGenNNZ, and the generator's own rule.
func (ms MatrixSpec) resolve() (generator, []float64, error) {
	for name, v := range ms.Params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return generator{}, nil, fmt.Errorf("engine: matrix param %q is not finite", name)
		}
	}
	if ms.Generator == "" {
		return generator{}, nil, fmt.Errorf("engine: empty matrix spec")
	}
	g, ok := generators[ms.Generator]
	if !ok {
		return generator{}, nil, fmt.Errorf("engine: unknown matrix generator %q", ms.Generator)
	}
	p := make([]float64, len(g.params))
	for k, gp := range g.params {
		if p[k] = gp.def; gp.def < 0 {
			p[k] = p[0]
		}
		if v, set := ms.Params[gp.name]; set {
			p[k] = v
		}
	}
	rows := g.dof
	for k := range g.dims {
		d := int(p[k])
		if d < 1 {
			return generator{}, nil, fmt.Errorf("engine: matrix param %q = %d must be >= 1", g.params[k].name, d)
		}
		if rows *= float64(d); rows > maxGenRows {
			return generator{}, nil, fmt.Errorf("engine: generated matrix would exceed %d rows", maxGenRows)
		}
	}
	if g.nnzPerRow != nil && rows*g.nnzPerRow(p) > maxGenNNZ {
		return generator{}, nil, fmt.Errorf("engine: generated matrix would exceed %d nonzeros", maxGenNNZ)
	}
	if g.check != nil {
		if err := g.check(p); err != nil {
			return generator{}, nil, err
		}
	}
	return g, p, nil
}

// checkBounds validates the spec cheaply, without building anything: a
// MatrixMarket header's declared size, or a generator the table knows and
// its parameters (see resolve). Called at submission time (JobSpec.Validate,
// Engine.PutMatrix) and again in Build.
func (ms MatrixSpec) checkBounds() error {
	if len(ms.MatrixMarket) > 0 {
		return ms.checkMMBounds()
	}
	_, _, err := ms.resolve()
	return err
}

// Build materializes the matrix: a generator's parameters and defaults are
// those of its generators entry. Its errors are classed invalid_argument.
func (ms MatrixSpec) Build() (*sparse.CSR, error) {
	a, err := ms.build()
	return a, xerr.Ensure(xerr.InvalidArgument, err)
}

// build is Build before its errors are classed.
func (ms MatrixSpec) build() (*sparse.CSR, error) {
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
	}
	g, p, err := ms.resolve()
	if err != nil {
		return nil, err
	}
	return checkDims(g.build(p))
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
		return nil, nil, xerr.Newf(xerr.InvalidArgument, "engine: rhs length %d != matrix rows %d", len(b), a.Rows)
	}
	return a, b, nil
}
