package matgen

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

// checkSPDStructure verifies the generated matrix is structurally valid,
// symmetric, and strictly diagonally dominant with positive diagonal
// (a sufficient condition for SPD).
func checkSPDStructure(t *testing.T, m *sparse.CSR, name string) {
	t.Helper()
	if err := m.CheckValid(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m.Rows != m.Cols {
		t.Fatalf("%s: not square", name)
	}
	if !m.IsSymmetric(1e-12) {
		t.Fatalf("%s: not symmetric", name)
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		var off, diag float64
		for k, j := range cols {
			if j == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("%s: row %d not strictly diagonally dominant (diag=%v off=%v)", name, i, diag, off)
		}
	}
}

func TestPoisson2D(t *testing.T) {
	m := Poisson2D(5, 4)
	if m.Rows != 20 {
		t.Fatalf("rows = %d", m.Rows)
	}
	if err := m.CheckValid(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Fatal("not symmetric")
	}
	// interior row has 5 entries
	cols, _ := m.Row(6) // (1,1) interior for nx=5
	if len(cols) != 5 {
		t.Fatalf("interior row nnz = %d, want 5", len(cols))
	}
}

func TestTriangular2D(t *testing.T) {
	m := Triangular2D(10, 10)
	checkSPDStructure(t, m, "Triangular2D")
	// interior row has 7 entries
	cols, _ := m.Row(5*10 + 5)
	if len(cols) != 7 {
		t.Fatalf("interior nnz = %d, want 7", len(cols))
	}
}

func TestPoisson3D(t *testing.T) {
	m := Poisson3D(4, 4, 4)
	checkSPDStructure(t, m, "Poisson3D")
	if m.Rows != 64 {
		t.Fatalf("rows = %d", m.Rows)
	}
	cols, _ := m.Row((1*4+1)*4 + 1) // interior node
	if len(cols) != 7 {
		t.Fatalf("interior nnz = %d, want 7", len(cols))
	}
}

func TestFEM3D19(t *testing.T) {
	m := FEM3D19(5, 5, 5)
	checkSPDStructure(t, m, "FEM3D19")
	cols, _ := m.Row((2*5+2)*5 + 2) // interior node
	if len(cols) != 19 {
		t.Fatalf("interior nnz = %d, want 19", len(cols))
	}
}

func TestElasticity3DStencils(t *testing.T) {
	for _, st := range []int{7, 15, 27} {
		m := Elasticity3D(4, 4, 4, st, 1)
		checkSPDStructure(t, m, "Elasticity3D")
		if m.Rows != 3*64 {
			t.Fatalf("rows = %d", m.Rows)
		}
		// density grows with the stencil
		perRow := float64(m.NNZ()) / float64(m.Rows)
		switch st {
		case 7:
			if perRow < 10 || perRow > 22 {
				t.Fatalf("stencil 7: %v nnz/row", perRow)
			}
		case 15:
			if perRow < 20 || perRow > 46 {
				t.Fatalf("stencil 15: %v nnz/row", perRow)
			}
		case 27:
			if perRow < 35 || perRow > 82 {
				t.Fatalf("stencil 27: %v nnz/row", perRow)
			}
		}
	}
}

func TestElasticity3DBadStencilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Elasticity3D(2, 2, 2, 9, 1)
}

func TestCircuitLike(t *testing.T) {
	m := CircuitLike(500, 3.0, 0.35, 42)
	checkSPDStructure(t, m, "CircuitLike")
	// Long-range links must push the bandwidth far beyond a local window.
	if bw := m.Bandwidth(); bw < 500/4 {
		t.Fatalf("bandwidth %d too small for a long-range pattern", bw)
	}
}

func TestCircuitLikeDeterministic(t *testing.T) {
	a := CircuitLike(300, 3, 0.3, 9)
	b := CircuitLike(300, 3, 0.3, 9)
	if a.NNZ() != b.NNZ() {
		t.Fatal("not deterministic")
	}
	for k := range a.Val {
		if a.Val[k] != b.Val[k] || a.Col[k] != b.Col[k] {
			t.Fatal("not deterministic")
		}
	}
}

func TestThermalMesh(t *testing.T) {
	m := ThermalMesh(6, 6, 6, 0.15, 11)
	checkSPDStructure(t, m, "ThermalMesh")
	perRow := float64(m.NNZ()) / float64(m.Rows)
	if perRow < 4 || perRow > 9 {
		t.Fatalf("nnz/row = %v, want ~7", perRow)
	}
}

func TestBandedRandom(t *testing.T) {
	m := BandedRandom(400, 10, 6, 13)
	checkSPDStructure(t, m, "BandedRandom")
	if bw := m.Bandwidth(); bw > 10 {
		t.Fatalf("bandwidth %d exceeds requested band 10", bw)
	}
}

func TestCatalogueTiny(t *testing.T) {
	cat := Catalogue()
	if len(cat) != 8 {
		t.Fatalf("catalogue has %d entries, want 8", len(cat))
	}
	prevNNZ := 0
	for _, e := range cat {
		m := e.Build(ScaleTiny)
		checkSPDStructure(t, m, e.ID)
		if e.PaperNNZ < prevNNZ {
			t.Fatalf("catalogue not ordered by paper NNZ at %s", e.ID)
		}
		prevNNZ = e.PaperNNZ
	}
}

// Density classes must match the paper's Table 1 within a factor ~2;
// this pins the substitution fidelity.
func TestCatalogueDensityMatchesPaper(t *testing.T) {
	for _, e := range Catalogue() {
		m := e.Build(ScaleTiny)
		got := float64(m.NNZ()) / float64(m.Rows)
		paper := float64(e.PaperNNZ) / float64(e.PaperN)
		lo, hi := paper/2.2, paper*2.2
		if got < lo || got > hi {
			t.Errorf("%s: generated %.1f nnz/row vs paper %.1f (allowed [%.1f, %.1f])",
				e.ID, got, paper, lo, hi)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("M5")
	if err != nil || e.PaperName != "Emilia_923" {
		t.Fatalf("ByID(M5) = %v, %v", e.PaperName, err)
	}
	if _, err := ByID("M99"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestParseScale(t *testing.T) {
	for _, s := range []string{"tiny", "small", "paper"} {
		sc, err := ParseScale(s)
		if err != nil || sc.String() != s {
			t.Fatalf("ParseScale(%q) = %v, %v", s, sc, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("expected error")
	}
}
