package experiments

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/matgen"
	"repro/internal/stats"
)

// FigureGroup is one x-axis group of the paper's Figures 1-3: for one
// redundancy level, the box of the undisturbed resilient runtimes (the blue
// box) and the box of the runtimes with psi = phi failures (the orange box).
type FigureGroup struct {
	Phi         int
	Undisturbed stats.Box
	WithFailure stats.Box
}

// Figure reproduces the data behind Figures 1-3: runtime and relative
// overhead versus the number of redundant copies for one matrix and failure
// location, with the reference runtime band.
type Figure struct {
	// Caption describes the figure ("M5 at center", ...).
	Caption string
	// RefMean and RefStd describe the reference-runtime band (the blue line
	// and shaded band at the bottom of the paper's figures).
	RefMean, RefStd float64
	// Groups are the per-phi box pairs.
	Groups []FigureGroup
}

// FigureRuntimes runs the sweep behind Figures 1-3 for the given matrix id
// and failure location: for each phi, Reps undisturbed runs (blue box) and
// Reps runs per progress fraction with psi = phi simultaneous failures
// pooled into one box (orange box), exactly the paper's convention.
func (cfg Config) FigureRuntimes(id, location string) (Figure, error) {
	entry, err := matgen.ByID(id)
	if err != nil {
		return Figure{}, err
	}
	a := entry.Build(cfg.Scale)
	fig := Figure{Caption: fmt.Sprintf("%s at %s", id, location)}

	ref, err := cfg.ReferenceRun(a)
	if err != nil {
		return fig, err
	}
	rts := runtimes(ref)
	fig.RefMean = stats.Mean(rts)
	fig.RefStd = stats.StdDev(rts)
	refIters := ref[0].Iterations

	err = cfg.forEachPhi(a, func(ps *engine.Prepared) error {
		und, err := cfg.UndisturbedRun(ps)
		if err != nil {
			return err
		}
		var failRts []float64
		for _, prog := range cfg.Progresses {
			ms, err := cfg.FailureRun(ps, location, prog, refIters)
			if err != nil {
				return err
			}
			failRts = append(failRts, runtimes(ms)...)
		}
		fig.Groups = append(fig.Groups, FigureGroup{
			Phi:         ps.Phi(),
			Undisturbed: stats.NewBox(runtimes(und)),
			WithFailure: stats.NewBox(failRts),
		})
		return nil
	})
	return fig, err
}

// FormatFigure renders the figure data as text: one line per box with the
// relative overhead of the medians.
func FormatFigure(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure data: %s\n", f.Caption)
	fmt.Fprintf(&b, "reference: %.4fs +- %.4fs\n", f.RefMean, f.RefStd)
	for _, g := range f.Groups {
		fmt.Fprintf(&b, "  phi=%d  undisturbed: %-58s overhead %+6.1f%%\n",
			g.Phi, g.Undisturbed.String(), 100*(g.Undisturbed.Median-f.RefMean)/f.RefMean)
		fmt.Fprintf(&b, "         with failures: %-56s overhead %+6.1f%%\n",
			g.WithFailure.String(), 100*(g.WithFailure.Median-f.RefMean)/f.RefMean)
	}
	return b.String()
}

// ProgressFigure is the data of the paper's Figure 4: total runtime versus
// the progress fraction at which a fixed number of failures is injected.
type ProgressFigure struct {
	Caption string
	// Boxes maps the progress fraction (in percent) to the runtime box.
	Progress []float64
	Boxes    []stats.Box
}

// FigureProgress reproduces Figure 4: psi failures at the given location,
// swept over the progress fractions.
func (cfg Config) FigureProgress(id, location string, psi int) (ProgressFigure, error) {
	entry, err := matgen.ByID(id)
	if err != nil {
		return ProgressFigure{}, err
	}
	a := entry.Build(cfg.Scale)
	fig := ProgressFigure{Caption: fmt.Sprintf("%s at %s, %d node failures", id, location, psi)}
	ref, err := cfg.ReferenceRun(a)
	if err != nil {
		return fig, err
	}
	refIters := ref[0].Iterations
	ps, err := session(a, cfg.Ranks, psi)
	if err != nil {
		return fig, err
	}
	defer ps.Close()
	for _, prog := range cfg.Progresses {
		ms, err := cfg.FailureRun(ps, location, prog, refIters)
		if err != nil {
			return fig, err
		}
		fig.Progress = append(fig.Progress, 100*prog)
		fig.Boxes = append(fig.Boxes, stats.NewBox(runtimes(ms)))
	}
	return fig, nil
}

// FormatProgressFigure renders Figure 4's data as text.
func FormatProgressFigure(f ProgressFigure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure data: %s\n", f.Caption)
	for i, p := range f.Progress {
		fmt.Fprintf(&b, "  %3.0f%% progress: %s\n", p, f.Boxes[i].String())
	}
	return b.String()
}
