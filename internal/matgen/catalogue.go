package matgen

import (
	"fmt"

	"repro/internal/sparse"
)

// Scale selects how large the generated analogues of the paper's Table 1
// matrices are. The paper's evaluation ran on 128 nodes of VSC3 with
// million-row matrices; the scaled-down defaults keep the same pattern
// classes and relative size ordering while fitting a single-machine run.
type Scale int

const (
	// ScaleTiny is for unit tests: hundreds to a few thousand rows.
	ScaleTiny Scale = iota
	// ScaleSmall is the default benchmark scale: tens of thousands of rows.
	ScaleSmall
	// ScalePaper reconstructs the order of magnitude of the paper's
	// matrices (hundreds of thousands to ~1.5M rows). Expensive.
	ScalePaper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts "tiny", "small" or "paper" into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("matgen: unknown scale %q (want tiny, small or paper)", s)
}

// CatalogueEntry describes one matrix of the experimental catalogue: the
// paper's Table 1 row it substitutes and the generator used.
type CatalogueEntry struct {
	// ID is the paper's matrix id, "M1" ... "M8".
	ID string
	// PaperName is the SuiteSparse problem substituted.
	PaperName string
	// ProblemType matches Table 1's problem-type column.
	ProblemType string
	// PaperN and PaperNNZ are the original dimensions from Table 1.
	PaperN, PaperNNZ int
	// Generator describes the synthetic substitute.
	Generator string
	// Build generates the matrix at the given scale.
	Build func(Scale) *sparse.CSR
}

// Catalogue returns the eight-entry experimental catalogue mirroring the
// paper's Table 1 (ordered by increasing number of non-zeros, like the
// paper). Matrices are deterministic for a fixed scale.
func Catalogue() []CatalogueEntry {
	return []CatalogueEntry{
		{
			ID: "M1", PaperName: "parabolic_fem", ProblemType: "Fluid dynamics",
			PaperN: 525825, PaperNNZ: 3674625,
			Generator: "Triangular2D (7-point 2D FEM mesh)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return Triangular2D(24, 24)
				case ScalePaper:
					return Triangular2D(725, 725)
				default:
					return Triangular2D(180, 180)
				}
			},
		},
		{
			ID: "M2", PaperName: "offshore", ProblemType: "Electromagnetics",
			PaperN: 259789, PaperNNZ: 4242673,
			Generator: "FEM3D19 (19-point 3D FEM stencil)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return FEM3D19(8, 8, 8)
				case ScalePaper:
					return FEM3D19(64, 64, 64)
				default:
					return FEM3D19(28, 28, 28)
				}
			},
		},
		{
			ID: "M3", PaperName: "G3_circuit", ProblemType: "Circuit simulation",
			PaperN: 1585478, PaperNNZ: 7660826,
			Generator: "CircuitLike (irregular graph, 35% long-range links)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return CircuitLike(600, 2.9, 0.35, 3)
				case ScalePaper:
					return CircuitLike(1585478, 2.9, 0.35, 3)
				default:
					return CircuitLike(60000, 2.9, 0.35, 3)
				}
			},
		},
		{
			ID: "M4", PaperName: "thermal2", ProblemType: "Thermal",
			PaperN: 1228045, PaperNNZ: 8580313,
			Generator: "ThermalMesh (jittered 3D 7-point mesh)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return ThermalMesh(9, 9, 9, 0.15, 4)
				case ScalePaper:
					return ThermalMesh(107, 107, 107, 0.15, 4)
				default:
					return ThermalMesh(38, 38, 38, 0.15, 4)
				}
			},
		},
		{
			ID: "M5", PaperName: "Emilia_923", ProblemType: "Structural",
			PaperN: 923136, PaperNNZ: 40373538,
			Generator: "Elasticity3D (15-point, 3 dof/node, flat geometry)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return Elasticity3D(8, 7, 4, 15, 5)
				case ScalePaper:
					return Elasticity3D(106, 85, 34, 15, 5)
				default:
					return Elasticity3D(34, 27, 11, 15, 5)
				}
			},
		},
		{
			ID: "M6", PaperName: "Geo_1438", ProblemType: "Structural",
			PaperN: 1437960, PaperNNZ: 60236322,
			Generator: "Elasticity3D (15-point, 3 dof/node, cubic geometry)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return Elasticity3D(7, 7, 6, 15, 6)
				case ScalePaper:
					return Elasticity3D(78, 78, 78, 15, 6)
				default:
					return Elasticity3D(25, 25, 25, 15, 6)
				}
			},
		},
		{
			ID: "M7", PaperName: "Serena", ProblemType: "Structural",
			PaperN: 1391349, PaperNNZ: 64131971,
			Generator: "Elasticity3D (15-point, 3 dof/node, elongated geometry)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return Elasticity3D(12, 6, 4, 15, 7)
				case ScalePaper:
					return Elasticity3D(154, 77, 39, 15, 7)
				default:
					return Elasticity3D(49, 25, 13, 15, 7)
				}
			},
		},
		{
			ID: "M8", PaperName: "audikw_1", ProblemType: "Structural",
			PaperN: 943695, PaperNNZ: 77651847,
			Generator: "Elasticity3D (27-point, 3 dof/node)",
			Build: func(s Scale) *sparse.CSR {
				switch s {
				case ScaleTiny:
					return Elasticity3D(7, 7, 5, 27, 8)
				case ScalePaper:
					return Elasticity3D(68, 68, 68, 27, 8)
				default:
					return Elasticity3D(22, 22, 22, 27, 8)
				}
			},
		},
	}
}

// ByID returns the catalogue entry with the given ID ("M1".."M8").
func ByID(id string) (CatalogueEntry, error) {
	for _, e := range Catalogue() {
		if e.ID == id {
			return e, nil
		}
	}
	return CatalogueEntry{}, fmt.Errorf("matgen: no catalogue entry %q", id)
}

// ByIDOrDie is ByID for harness code where an unknown id is a programming
// error; it panics instead of returning an error.
func ByIDOrDie(id string) CatalogueEntry {
	e, err := ByID(id)
	if err != nil {
		panic(err)
	}
	return e
}
