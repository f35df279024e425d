package engine_test

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	esr "repro"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/matgen"
)

// episodeSeries reads one strategy's episode histogram (count and sum) and
// its solver_episodes_total and solver_recovery_seconds_total off one Gather.
func episodeSeries(eng *engine.Engine, strategy string) (count uint64, sum, episodes, recoverySecs float64) {
	s := eng.Metrics().Gather()
	for _, f := range s {
		if f.Name != "solver_recovery_episode_seconds" {
			continue
		}
		for _, sm := range f.Samples {
			if len(sm.Labels) == 1 && sm.Labels[0].Value == strategy {
				count, sum = sm.Count, sm.Sum
			}
		}
	}
	episodes = s.ByLabel("solver_episodes_total", "strategy")[strategy]
	recoverySecs = s.ByLabel("solver_recovery_seconds_total", "strategy")[strategy]
	return count, sum, episodes, recoverySecs
}

// TestEpisodeHistogramSkipsTwinCorrections: the episode histogram times the
// fail-stop episodes solver_episodes_total counts and no twin correction — a
// bit flip alone adds to neither, a kill plus a flip adds one to each — while
// the correction is still counted as corrected.
func TestEpisodeHistogramSkipsTwinCorrections(t *testing.T) {
	flip := faults.BitFlip(8, 1, faults.TargetX, 3, 52)
	for _, c := range []struct {
		name  string
		sched *faults.Schedule
		want  uint64
	}{
		{"flip", faults.NewSchedule(flip), 0},
		{"kill and flip", faults.NewSchedule(faults.Simultaneous(4, 2), flip), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := engine.New(engine.Options{Workers: 1})
			defer eng.Close()
			id, err := eng.Submit(engine.JobSpec{
				Matrix: engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16}},
				Config: engine.Config{Ranks: 4, Phi: 1, Strategy: engine.StrategyTwin, Schedule: c.sched},
			})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, eng, id, 30*time.Second); st.State != engine.StateDone {
				t.Fatalf("twin job state %s: %s", st.State, st.Error)
			}
			if ss := eng.StrategyStats()[engine.StrategyTwin]; ss.SDCCorrected != 1 {
				t.Fatalf("the flip was not corrected: %+v", ss)
			}
			count, _, episodes, _ := episodeSeries(eng, engine.StrategyTwin)
			if count != c.want || episodes != float64(c.want) {
				t.Fatalf("episode histogram count %d, solver_episodes_total %g; want both %d", count, episodes, c.want)
			}
		})
	}
}

// TestBatchEpisodeCountedOncePerGroup: a batch group's episode is one
// episode, whatever its width. Four columns at BlockSize 4 run as two groups
// of two, each through one reconstruction, so the episode counter, the
// recovery seconds and the session's StrategyStats agree with the episode
// histogram: two episodes, not one per column.
func TestBatchEpisodeCountedOncePerGroup(t *testing.T) {
	const k = 4
	bs := make([][]float64, k)
	for c := range bs {
		bs[c] = make([]float64, 256)
		for i := range bs[c] {
			bs[c][i] = 1 + float64((i+c)%7)/7
		}
	}
	sched := faults.NewSchedule(faults.Simultaneous(5, 1, 2))

	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	id, err := eng.Submit(engine.JobSpec{
		Matrix:   engine.MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}},
		Config:   engine.Config{Ranks: 4, Phi: 2, BlockSize: k, Schedule: sched},
		RHSBatch: bs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, eng, id, 30*time.Second); st.State != engine.StateDone {
		t.Fatalf("batch job state %s: %s", st.State, st.Error)
	}
	count, sum, episodes, secs := episodeSeries(eng, engine.StrategyESR)
	if count != 2 || episodes != 2 {
		t.Fatalf("episode histogram count %d, solver_episodes_total %g; want both 2", count, episodes)
	}
	if math.Abs(secs-sum) > 1e-12*sum {
		t.Fatalf("solver_recovery_seconds_total %g != episode histogram sum %g", secs, sum)
	}

	s, err := esr.NewSolver(matgen.Poisson2D(16, 16), esr.Config{Ranks: 4, Phi: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sols, err := s.SolveBatch(context.Background(), bs, esr.Config{BlockSize: k, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.StrategyStats().Episodes; got != 2 {
		t.Fatalf("Solver.StrategyStats().Episodes = %d, want 2", got)
	}
	// A group books each episode on every column still running, so the
	// shorter-running column's list is a prefix of its sibling's: the longest
	// list is the group's.
	for g := 0; g < k; g += 2 {
		short, long := sols[g].Result, sols[g+1].Result
		if short.Iterations > long.Iterations {
			short, long = long, short
		}
		n := len(short.Reconstructions)
		if n == 0 || n > len(long.Reconstructions) ||
			!slices.EqualFunc(short.Reconstructions, long.Reconstructions[:n], func(a, b esr.Reconstruction) bool {
				return a.Iteration == b.Iteration && slices.Equal(a.FailedRanks, b.FailedRanks)
			}) {
			t.Fatalf("group %d: %v is not a prefix of %v", g/2, short.Reconstructions, long.Reconstructions)
		}
	}
}
