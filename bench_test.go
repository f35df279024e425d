// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. 7). Each benchmark iteration regenerates the experiment's
// data at the tiny scale (so `go test -bench=.` terminates quickly) and logs
// the formatted rows; `cmd/esrbench` runs the same generators at the small
// and paper scales with the paper's repetition counts.
package esr

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/commmodel"
	"repro/internal/commplan"
	"repro/internal/experiments"
	"repro/internal/matgen"
	"repro/internal/partition"
)

// benchConfig is the reduced sweep used by the benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Reps = 1
	return cfg
}

// BenchmarkTable1Catalogue regenerates Table 1: the catalogue matrices and
// their structural properties.
func BenchmarkTable1Catalogue(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable1(rows))
		}
	}
}

// benchTable2Matrix regenerates one matrix's Table 2 block: reference run,
// undisturbed overheads for each phi, and failure experiments at both
// locations.
func benchTable2Matrix(b *testing.B, id string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table2([]string{id})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable2(rows, cfg.Phis))
			r := rows[0]
			for _, phi := range cfg.Phis {
				b.ReportMetric(r.UndisturbedOverhead[phi], fmt.Sprintf("undist_phi%d_%%", phi))
			}
		}
	}
}

func BenchmarkTable2_M1(b *testing.B) { benchTable2Matrix(b, "M1") }
func BenchmarkTable2_M2(b *testing.B) { benchTable2Matrix(b, "M2") }
func BenchmarkTable2_M3(b *testing.B) { benchTable2Matrix(b, "M3") }
func BenchmarkTable2_M4(b *testing.B) { benchTable2Matrix(b, "M4") }
func BenchmarkTable2_M5(b *testing.B) { benchTable2Matrix(b, "M5") }
func BenchmarkTable2_M6(b *testing.B) { benchTable2Matrix(b, "M6") }
func BenchmarkTable2_M7(b *testing.B) { benchTable2Matrix(b, "M7") }
func BenchmarkTable2_M8(b *testing.B) { benchTable2Matrix(b, "M8") }

// BenchmarkTable3ResidualDeviation regenerates Table 3: the Eqn. 7 relative
// residual difference metric across the failure sweep.
func BenchmarkTable3ResidualDeviation(b *testing.B) {
	cfg := benchConfig()
	cfg.Progresses = []float64{0.5}
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Table3(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatTable3(rows))
		}
	}
}

// benchFigure regenerates the box-plot data of Figures 1-3.
func benchFigure(b *testing.B, id, location string) {
	cfg := benchConfig()
	cfg.Reps = 3 // boxes need a few samples
	for i := 0; i < b.N; i++ {
		fig, err := cfg.FigureRuntimes(id, location)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatFigure(fig))
			last := fig.Groups[len(fig.Groups)-1]
			b.ReportMetric(100*(last.WithFailure.Median-fig.RefMean)/fig.RefMean, "maxphi_overhead_%")
		}
	}
}

// BenchmarkFigure1_M5Center regenerates Fig. 1: M5-class at center ranks.
func BenchmarkFigure1_M5Center(b *testing.B) { benchFigure(b, "M5", "center") }

// BenchmarkFigure2_M1Start regenerates Fig. 2: M1-class at start ranks.
func BenchmarkFigure2_M1Start(b *testing.B) { benchFigure(b, "M1", "start") }

// BenchmarkFigure3_M8Center regenerates Fig. 3: M8-class at center ranks
// (the paper's most favourable case: dense band, low overhead).
func BenchmarkFigure3_M8Center(b *testing.B) { benchFigure(b, "M8", "center") }

// BenchmarkFigure4_ProgressSweep regenerates Fig. 4: runtime vs the progress
// fraction at which three failures strike (M5-class at center).
func BenchmarkFigure4_ProgressSweep(b *testing.B) {
	cfg := benchConfig()
	cfg.Reps = 3
	cfg.Progresses = []float64{0.2, 0.5, 0.8}
	for i := 0; i < b.N; i++ {
		fig, err := cfg.FigureProgress("M5", "center", 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatProgressFigure(fig))
		}
	}
}

// BenchmarkAnalysisBounds evaluates the Sec. 4.2 communication-overhead
// bounds in the latency-bandwidth model for the whole catalogue.
func BenchmarkAnalysisBounds(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := cfg.Analysis(commmodel.DefaultModel())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", experiments.FormatAnalysis(rows))
		}
	}
}

// BenchmarkSparsityLatency sweeps the band width of a banded matrix and
// reports when the Sec. 5 extra-latency condition starts to bite: the
// redundancy protocol is free exactly while the band covers the backup
// distance.
func BenchmarkSparsityLatency(b *testing.B) {
	const n, ranks, phi = 4096, 16, 3
	for i := 0; i < b.N; i++ {
		for _, halfBand := range []int{8, 64, 256, 1024} {
			a := matgen.BandedRandom(n, halfBand, 12, 7)
			p := partition.NewBlockRow(n, ranks)
			plans := commplan.BuildAll(a, p)
			reds := make([]*commplan.Redundancy, ranks)
			for r, pl := range plans {
				red, err := commplan.BuildRedundancy(pl, phi)
				if err != nil {
					b.Fatal(err)
				}
				reds[r] = red
			}
			tot, err := commmodel.TotalOverhead(reds, commmodel.DefaultModel())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("halfBand=%4d: modelled overhead %.3e s, extra elements %d",
					halfBand, tot.Modelled, tot.ExtraElems)
			}
		}
	}
}

// BenchmarkAblationBackupStrategy compares the paper's Eqn. 5 neighbour
// backups + Eqn. 6 top-ups against the adaptive strategy (the paper's
// future-work item): per-iteration extra elements and modelled overhead on
// the banded M5 class versus the scattered M3 class.
func BenchmarkAblationBackupStrategy(b *testing.B) {
	model := commmodel.DefaultModel()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"M3", "M5"} {
			a := matgen.ByIDOrDie(id).Build(matgen.ScaleTiny)
			p := partition.NewBlockRow(a.Rows, 8)
			plans := commplan.BuildAll(a, p)
			for _, strat := range []commplan.BackupStrategy{commplan.StrategyNeighbor, commplan.StrategyAdaptive} {
				reds := make([]*commplan.Redundancy, len(plans))
				for r, pl := range plans {
					red, err := commplan.BuildRedundancyStrategy(pl, 3, strat)
					if err != nil {
						b.Fatal(err)
					}
					reds[r] = red
				}
				tot, err := commmodel.TotalOverhead(reds, model)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s %-16v extras=%6d modelled=%.3e", id, strat, tot.ExtraElems, tot.Modelled)
					b.ReportMetric(float64(tot.ExtraElems), fmt.Sprintf("%s_%v_extras", id, strat))
				}
			}
		}
	}
}

// BenchmarkPreparedVsOneShot measures repeated-right-hand-side throughput of
// a prepared Solver session against the one-shot esr.Solve path on the same
// Poisson2D system: one iteration serves 8 right-hand sides either through
// one NewSolver session (setup paid once) or through 8 independent Solve
// calls (setup — partitioning, symbolic exchange, and the paper's exact
// block factorization — paid per call). The session is expected to deliver
// >= 2x the one-shot throughput; see the verify notes.
func BenchmarkPreparedVsOneShot(b *testing.B) {
	a := Poisson2D(64, 64)
	const numRHS = 8
	rhs := make([][]float64, numRHS)
	for k := range rhs {
		v := make([]float64, a.Rows)
		for i := range v {
			v[i] = 1 + 0.5*math.Sin(float64(k+1)*float64(i+1))
		}
		rhs[k] = v
	}
	// The paper's configuration: exact block solves (dense Cholesky), the
	// setup cost a session amortizes.
	cfg := Config{Ranks: 4, Preconditioner: PrecondBlockJacobiChol}

	b.Run("oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, v := range rhs {
				if _, err := Solve(a, v, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(numRHS)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
	})
	b.Run("prepared", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			// The session build is inside the measured region: one prepare
			// plus numRHS solves versus numRHS one-shot prepare+solve pairs.
			s, err := NewSolver(a, FromConfig(cfg))
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range rhs {
				if _, err := s.Solve(ctx, v); err != nil {
					s.Close()
					b.Fatal(err)
				}
			}
			s.Close()
		}
		b.ReportMetric(float64(numRHS)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
	})
}

// BenchmarkSolveBatch measures the batch path per recovery strategy, one
// column at a time against the default block width: a failure-free 32-RHS
// SolveBatch on Poisson 64x64, 8 ranks, phi 3. At width k the driver runs one
// k-column SpMM, one k-strided halo frame per neighbor and fused length-k
// allreduces per iteration where width 1 pays k of each, and the strategy's
// steady-state work — checkpoint saves, twin snapshots and checksum votes,
// nothing for esr and restart — rides along per column. Both widths produce
// bitwise identical columns, so solves/s is the whole story; the ESR scaling
// over k is the repo benchmark's batch_solves_per_s.
func BenchmarkSolveBatch(b *testing.B) {
	a := Poisson2D(64, 64)
	const k = 32
	bs := make([][]float64, k)
	for j := range bs {
		v := make([]float64, a.Rows)
		for i := range v {
			v[i] = 1 + 0.5*math.Sin(float64(j+1)*float64(i+1))
		}
		bs[j] = v
	}
	s, err := NewSolver(a, WithRanks(8), WithPhi(3))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, strat := range []Strategy{ESRStrategy, CheckpointStrategy, RestartStrategy, TwinStrategy} {
		for _, blockSize := range []int{1, DefaultBlockSize} {
			b.Run(fmt.Sprintf("%s/block%d", strat, blockSize), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.SolveBatch(ctx, bs, WithStrategy(strat), WithBlockSize(blockSize)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
			})
		}
	}
}

// BenchmarkStrategyOverhead measures the steady-state cost of each
// protection scheme on failure-free solves of one Poisson2D system through a
// prepared session: the unprotected reference, ESR at phi 1 and 3 (the
// redundancy piggybacks on the SpMV), checkpoint/restart at the default
// interval (a coordinated 4n-float save every 10 iterations), and the
// overhead-free cold-restart strategy. This is the bench-trajectory signal
// for the paper's central claim: ESR's steady state must stay near the
// reference while C/R pays for every save.
func BenchmarkStrategyOverhead(b *testing.B) {
	a := Poisson2D(64, 64)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1 + 0.25*math.Sin(float64(i))
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"reference", nil},
		{"esr-phi1", []Option{WithPhi(1)}},
		{"esr-phi3", []Option{WithPhi(3)}},
		{"checkpoint-10", []Option{WithStrategy(CheckpointStrategy), WithCheckpointInterval(10)}},
		{"restart", []Option{WithStrategy(RestartStrategy)}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			s, err := NewSolver(a, append([]Option{WithRanks(8)}, tc.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := s.Solve(ctx, rhs)
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Result.Converged {
					b.Fatal("did not converge")
				}
			}
			b.StopTimer()
			st := s.StrategyStats()
			if n := st.Solves; n > 0 {
				b.ReportMetric(float64(st.CheckpointFloats)/float64(n), "ckpt_floats/solve")
				b.ReportMetric(float64(st.RedundancyFloats)/float64(n), "red_floats/solve")
			}
		})
	}
}

// BenchmarkTwinOverhead measures the steady-state cost of the twin-replica
// strategy against plain ESR on failure-free solves: the shadow sync (four
// vector copies) plus the checksum exchange per comparison interval. The
// interval-8 case amortizes both: the twin poll point should stay cheap
// relative to the SpMV it rides on.
func BenchmarkTwinOverhead(b *testing.B) {
	a := Poisson2D(64, 64)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1 + 0.25*math.Sin(float64(i))
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"esr-phi1", []Option{WithPhi(1)}},
		{"twin-every1", []Option{WithStrategy(TwinStrategy)}},
		{"twin-every8", []Option{WithStrategy(TwinStrategy), WithTwinInterval(8)}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			s, err := NewSolver(a, append([]Option{WithRanks(8)}, tc.opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := s.Solve(ctx, rhs)
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Result.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// benchCountingTracer is a minimal Tracer for overhead measurement: two
// atomic increments per callback, nothing else, so the benchmark isolates
// the solver-side cost of the phase clock and the trace delivery.
type benchCountingTracer struct {
	iters, recs atomic.Int64
}

func (t *benchCountingTracer) TraceIteration(IterationTrace) { t.iters.Add(1) }
func (t *benchCountingTracer) TraceRecovery(RecoveryTrace)   { t.recs.Add(1) }

// BenchmarkTracerOverhead measures the cost of per-iteration phase tracing
// on failure-free resilient solves through a prepared session (ranks 8, phi
// 1, so the ESR-PCG driver runs). Tracing adds four monotonic clock reads
// per iteration on rank 0 and nothing on the other ranks; the traced and
// untraced sub-benchmarks must stay within a few percent of each other (the
// repo benchmark reports the same contrast as bench.trace_overhead_share).
func BenchmarkTracerOverhead(b *testing.B) {
	a := Poisson2D(64, 64)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1 + 0.25*math.Sin(float64(i))
	}
	ctx := context.Background()
	run := func(b *testing.B, opts ...Option) {
		b.Helper()
		s, err := NewSolver(a, WithRanks(8), WithPhi(1))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := s.Solve(ctx, rhs, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if !sol.Result.Converged {
				b.Fatal("did not converge")
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		run(b)
	})
	b.Run("traced", func(b *testing.B) {
		var tr benchCountingTracer
		run(b, WithTracer(&tr))
		b.StopTimer()
		if tr.iters.Load() == 0 {
			b.Fatal("tracer observed no iterations")
		}
		b.ReportMetric(float64(tr.iters.Load())/float64(b.N), "iters/solve")
	})
}

// BenchmarkEndToEndSolve measures one resilient solve with three
// simultaneous failures on the M5-class matrix: the headline configuration
// of the paper's abstract (2.8%-55% overhead for three failures).
func BenchmarkEndToEndSolve(b *testing.B) {
	a := matgen.ByIDOrDie("M5").Build(matgen.ScaleTiny)
	for i := 0; i < b.N; i++ {
		m, err := experiments.SolveOnce(a, 8, 3,
			NewSchedule(Simultaneous(5, 4, 5, 6)), 1e-8, 1e-14)
		if err != nil {
			b.Fatal(err)
		}
		if !m.Converged {
			b.Fatal("did not converge")
		}
	}
}
