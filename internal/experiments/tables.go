package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// Table1Row is one row of the paper's Table 1: the test matrices.
type Table1Row struct {
	// Name and ID identify the matrix (generator name; paper name noted).
	Name, ID, ProblemType string
	// N and NNZ are the generated dimensions at the configured scale.
	N, NNZ int
	// PaperN and PaperNNZ are the original SuiteSparse dimensions.
	PaperN, PaperNNZ int
	// Bandwidth is the half-bandwidth of the generated pattern (structure
	// indicator; not in the paper's table but central to its Sec. 5).
	Bandwidth int
}

// Table1 generates the matrix catalogue at the configured scale and reports
// its properties next to the paper's originals.
func (cfg Config) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, e := range matgen.Catalogue() {
		a := e.Build(cfg.Scale)
		if err := a.CheckValid(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		rows = append(rows, Table1Row{
			Name:        e.Generator,
			ID:          e.ID,
			ProblemType: e.ProblemType,
			N:           a.Rows,
			NNZ:         a.NNZ(),
			PaperN:      e.PaperN,
			PaperNNZ:    e.PaperNNZ,
			Bandwidth:   a.Bandwidth(),
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 as aligned text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: test matrices (generated analogues of the SuiteSparse problems)\n")
	fmt.Fprintf(&b, "%-4s %-45s %-20s %10s %10s %9s | paper: %9s %10s\n",
		"ID", "generator", "problem type", "n", "nnz", "bandw", "n", "nnz")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %-45s %-20s %10d %10d %9d | %16d %10d\n",
			r.ID, r.Name, r.ProblemType, r.N, r.NNZ, r.Bandwidth, r.PaperN, r.PaperNNZ)
	}
	return b.String()
}

// Table2Cell aggregates the failure experiments of one (phi, location) pair:
// mean +/- std of the relative reconstruction time and of the total relative
// overhead, both in percent of the reference time t0 (the paper's last six
// columns).
type Table2Cell struct {
	Phi                             int
	Location                        string
	ReconstructMean, ReconstructStd float64
	OverheadMean, OverheadStd       float64
}

// Table2Row holds the full Table 2 content for one matrix.
type Table2Row struct {
	ID string
	// T0 is the mean reference runtime in seconds.
	T0 float64
	// RefIters is the reference iteration count (used to place failures).
	RefIters int
	// UndisturbedOverhead maps phi -> mean relative overhead (percent) of
	// the resilient solver without failures.
	UndisturbedOverhead map[int]float64
	// Cells are the failure experiments per (phi, location).
	Cells []Table2Cell
}

// Table2 runs the full overhead sweep of the paper's Table 2 for the
// catalogue subset selected by ids (nil = all eight).
func (cfg Config) Table2(ids []string) ([]Table2Row, error) {
	entries, err := selectEntries(ids)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, e := range entries {
		a := e.Build(cfg.Scale)
		row, err := cfg.table2ForMatrix(e.ID, a)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (cfg Config) table2ForMatrix(id string, a *sparse.CSR) (Table2Row, error) {
	row := Table2Row{ID: id, UndisturbedOverhead: map[int]float64{}}
	ref, err := cfg.ReferenceRun(a)
	if err != nil {
		return row, err
	}
	row.T0 = stats.Mean(runtimes(ref))
	row.RefIters = ref[0].Iterations
	err = cfg.forEachPhi(a, func(ps *engine.Prepared) error {
		und, err := cfg.UndisturbedRun(ps)
		if err != nil {
			return err
		}
		row.UndisturbedOverhead[ps.Phi()] = 100 * (stats.Mean(runtimes(und)) - row.T0) / row.T0
		for _, loc := range cfg.Locations {
			var recPct, ovhPct []float64
			for _, prog := range cfg.Progresses {
				ms, err := cfg.FailureRun(ps, loc, prog, row.RefIters)
				if err != nil {
					return err
				}
				for _, m := range ms {
					recPct = append(recPct, 100*m.ReconstructTime.Seconds()/row.T0)
					ovhPct = append(ovhPct, 100*(m.Runtime.Seconds()-row.T0)/row.T0)
				}
			}
			row.Cells = append(row.Cells, Table2Cell{
				Phi:             ps.Phi(),
				Location:        loc,
				ReconstructMean: stats.Mean(recPct),
				ReconstructStd:  stats.StdDev(recPct),
				OverheadMean:    stats.Mean(ovhPct),
				OverheadStd:     stats.StdDev(ovhPct),
			})
		}
		return nil
	})
	return row, err
}

// FormatTable2 renders the sweep in the paper's layout: one block per
// matrix with undisturbed overheads and per-location failure columns.
func FormatTable2(rows []Table2Row, phis []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: runtime overheads (percent of reference t0; failures: psi = phi contiguous ranks)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s t0 = %8.4fs  iters = %-6d undisturbed overhead:", r.ID, r.T0, r.RefIters)
		for _, phi := range phis {
			if v, ok := r.UndisturbedOverhead[phi]; ok {
				fmt.Fprintf(&b, "  phi=%d: %6.1f%%", phi, v)
			}
		}
		fmt.Fprintln(&b)
		for _, loc := range []string{"start", "center"} {
			var cells []Table2Cell
			for _, c := range r.Cells {
				if c.Location == loc {
					cells = append(cells, c)
				}
			}
			if len(cells) == 0 {
				continue
			}
			fmt.Fprintf(&b, "      %-7s reconstruction:", loc)
			for _, c := range cells {
				fmt.Fprintf(&b, "  psi=%d: %5.1f+-%4.1f%%", c.Phi, c.ReconstructMean, c.ReconstructStd)
			}
			fmt.Fprintf(&b, "\n      %-7s with failures:  ", loc)
			for _, c := range cells {
				fmt.Fprintf(&b, "  psi=%d: %5.1f+-%4.1f%%", c.Phi, c.OverheadMean, c.OverheadStd)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// Table3Row is one row of the paper's Table 3: the maximum Eqn. 7 deviation
// over all failure experiments versus the reference run's deviation.
type Table3Row struct {
	ID string
	// MaxDeltaESR is the maximum relative residual difference over all
	// experiments with node failures.
	MaxDeltaESR float64
	// DeltaPCG is the metric of the reference run.
	DeltaPCG float64
}

// Table3 evaluates the residual-deviation metric sweep. It reuses the
// Table 2 failure grid but only needs one repetition per cell (the metric is
// deterministic for a fixed schedule).
func (cfg Config) Table3(ids []string) ([]Table3Row, error) {
	entries, err := selectEntries(ids)
	if err != nil {
		return nil, err
	}
	one := cfg
	one.Reps = 1
	var rows []Table3Row
	for _, e := range entries {
		a := e.Build(cfg.Scale)
		ref, err := one.ReferenceRun(a)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		row := Table3Row{ID: e.ID, DeltaPCG: ref[0].Delta}
		refIters := ref[0].Iterations
		err = one.forEachPhi(a, func(ps *engine.Prepared) error {
			for _, loc := range one.Locations {
				for _, prog := range one.Progresses {
					ms, err := one.FailureRun(ps, loc, prog, refIters)
					if err != nil {
						return err
					}
					for _, m := range ms {
						if abs(m.Delta) > abs(row.MaxDeltaESR) {
							row.MaxDeltaESR = m.Delta
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: relative residual difference (Eqn. 7)\n")
	fmt.Fprintf(&b, "%-4s %14s %14s\n", "ID", "max Delta_ESR", "Delta_PCG")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %14.3e %14.3e\n", r.ID, r.MaxDeltaESR, r.DeltaPCG)
	}
	return b.String()
}

func selectEntries(ids []string) ([]matgen.CatalogueEntry, error) {
	if ids == nil {
		return matgen.Catalogue(), nil
	}
	var out []matgen.CatalogueEntry
	for _, id := range ids {
		e, err := matgen.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
