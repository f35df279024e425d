package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/matgen"
	"repro/internal/xerr"
)

// The concurrent chunking of SolveChunked: every BlockSize chunk runs as two
// half-width lockstep groups, at most two in flight. These tests hold it to
// its looped Solve bit for bit and to its lifecycle: every group is joined
// before SolveChunked returns, and a failing group's own error wins over the
// cancellation it causes.

// chunkedSession prepares Poisson 16² on 8 ranks at phi 3, so that
// Simultaneous(6, 2, 3, 4) is recoverable.
func chunkedSession(t *testing.T, pc string) *Prepared {
	t.Helper()
	ps, err := Prepare(matgen.Poisson2D(16, 16), Config{Ranks: 8, Phi: 3, Preconditioner: pc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ps.Close)
	return ps
}

// groupProbe substitutes solveGroup with one that counts the groups and
// columns in flight (a group counts until its wrapped solve has returned
// and a grace period passed, so an unjoined group is still counted when
// SolveChunked returns) and hands each group to wrap, which defaults to the
// real solve. A group is named by its first column's index in the batch.
type groupProbe struct {
	mu                 sync.Mutex
	groups, cols       int
	maxGroups, maxCols int
	started            int
	live               atomic.Int64
	// wrap, when set, solves the group whose first column is batch[first].
	wrap func(first int, ps *Prepared, ctx context.Context, bs [][]float64, cfg *Config) ([]Solution, []error, error)
}

func probeGroups(t *testing.T, batch [][]float64) *groupProbe {
	g := &groupProbe{}
	orig := solveGroup
	solveGroup = func(ps *Prepared, ctx context.Context, bs [][]float64, cfg *Config) ([]Solution, []error, error) {
		g.live.Add(1)
		g.mu.Lock()
		g.started++
		g.groups++
		g.cols += len(bs)
		g.maxGroups, g.maxCols = max(g.maxGroups, g.groups), max(g.maxCols, g.cols)
		g.mu.Unlock()
		defer func() {
			g.mu.Lock()
			g.groups--
			g.cols -= len(bs)
			g.mu.Unlock()
			time.Sleep(20 * time.Millisecond)
			g.live.Add(-1)
		}()
		if g.wrap != nil {
			first := slices.IndexFunc(batch, func(b []float64) bool { return &b[0] == &bs[0][0] })
			return g.wrap(first, ps, ctx, bs, cfg)
		}
		return orig(ps, ctx, bs, cfg)
	}
	t.Cleanup(func() { solveGroup = orig })
	return g
}

// TestSolveChunkedMatchesLoopedSolve: 33 columns at BlockSize 32 run as
// groups 16/16/1, and 5 columns at BlockSize 1, 2 and 3 as groups of one or
// 2/1/1/1, and 10 at BlockSize 8 as 4/4/1/1, with and without a three-rank
// failure. Every column is its looped Solve bit for bit with the same Result
// counts, onBlock sees every group once in group order, at most two groups
// and BlockSize columns are in flight, the two halves of a full chunk do run
// together, and no x-system is left live.
func TestSolveChunkedMatchesLoopedSolve(t *testing.T) {
	ps := chunkedSession(t, "")
	bs := batchRHS(ps.N(), 33)
	for _, sched := range []*faults.Schedule{nil, faults.NewSchedule(faults.Simultaneous(6, 2, 3, 4))} {
		opts := Config{Schedule: sched, Tol: 1e-9}
		solo := make([]Solution, len(bs))
		for c, b := range bs {
			s, err := ps.Solve(context.Background(), b, opts)
			if err != nil {
				t.Fatal(err)
			}
			solo[c] = s
		}
		for _, tc := range []struct {
			cols, block int
			widths      []int
			// hold makes the group starting at column hold[0] wait for the
			// one starting at hold[1], or for a patience of 200 ms: at
			// BlockSize 32 the halves of a chunk must meet, at BlockSize 8 a
			// third group must not join the two in flight although its
			// column would fit.
			hold [2]int
		}{
			{33, 32, []int{16, 16, 1}, [2]int{0, 16}},
			{10, 8, []int{4, 4, 1, 1}, [2]int{4, 9}},
			{5, 1, []int{1, 1, 1, 1, 1}, [2]int{}},
			{5, 2, []int{1, 1, 1, 1, 1}, [2]int{}},
			{5, 3, []int{2, 1, 1, 1}, [2]int{}},
		} {
			name := fmt.Sprintf("%d columns at BlockSize %d, schedule %v", tc.cols, tc.block, sched != nil)
			probe := probeGroups(t, bs)
			if tc.hold != [2]int{} {
				started := make(chan struct{})
				probe.wrap = func(first int, ps *Prepared, ctx context.Context, bs [][]float64, cfg *Config) ([]Solution, []error, error) {
					switch first {
					case tc.hold[0]:
						select {
						case <-started:
						case <-time.After(200 * time.Millisecond):
						}
					case tc.hold[1]:
						close(started)
					}
					return ps.solveOn(ctx, nil, nil, bs, cfg, core.Options{})
				}
			}
			o := opts
			o.BlockSize = tc.block
			var widths []int
			sols, err := ps.SolveChunked(context.Background(), bs[:tc.cols], o, func(w int) { widths = append(widths, w) })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(widths, tc.widths) {
				t.Errorf("%s: onBlock saw %v, want %v", name, widths, tc.widths)
			}
			if probe.maxCols > tc.block || probe.maxGroups > 2 {
				t.Errorf("%s: %d columns in %d groups in flight", name, probe.maxCols, probe.maxGroups)
			}
			if tc.block == 32 && probe.maxGroups != 2 {
				t.Errorf("%s: the halves of a chunk ran apart", name)
			}
			if n := probe.live.Load(); n != 0 {
				t.Errorf("%s: %d groups still running after SolveChunked returned", name, n)
			}
			if n := core.LiveXSolves(); n != 0 {
				t.Errorf("%s: %d x-system solves left live", name, n)
			}
			for c, s := range sols {
				if got, want := latticeCounts(s.Result), latticeCounts(solo[c].Result); !slices.Equal(got, want) {
					t.Fatalf("%s: column %d counts %v, looped Solve %v", name, c, got, want)
				}
				if sched != nil && len(s.Result.Reconstructions) == 0 {
					t.Fatalf("%s: column %d saw no episode", name, c)
				}
				for i := range s.X {
					if math.Float64bits(s.X[i]) != math.Float64bits(solo[c].X[i]) {
						t.Fatalf("%s: column %d x[%d] = %x, looped Solve %x", name, c, i, s.X[i], solo[c].X[i])
					}
				}
			}
		}
	}
}

// TestSolveChunkedCancelJoinsBothGroups: a context cancelled mid-batch, with
// both groups of the chunk in flight, ends the batch with the context's
// error after both have returned.
func TestSolveChunkedCancelJoinsBothGroups(t *testing.T) {
	ps := chunkedSession(t, "")
	bs := batchRHS(ps.N(), 2)
	probe := probeGroups(t, bs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from iteration 3 on, once both groups have started: a loaded
	// machine may let the first group reach iteration 3 before the second
	// is launched, and a cancelled batch launches no more groups.
	opts := Config{BlockSize: 2, Tol: 1e-12, Tracer: onIteration(func(it core.IterationTrace) {
		probe.mu.Lock()
		both := probe.started == 2
		probe.mu.Unlock()
		if it.Iteration >= 3 && both {
			cancel()
		}
	})}
	sols, err := ps.SolveChunked(ctx, bs, opts, nil)
	if !errors.Is(err, context.Canceled) || sols != nil {
		t.Fatalf("cancelled batch: %d solutions, err %v; want none and context.Canceled", len(sols), err)
	}
	if probe.started != 2 || probe.maxGroups != 2 {
		t.Fatalf("%d groups started, %d in flight at once; want both halves together", probe.started, probe.maxGroups)
	}
	if n := probe.live.Load(); n != 0 {
		t.Fatalf("%d groups still running after SolveChunked returned", n)
	}
}

// TestSolveChunkedDataLossIsNotCancellation: the second group's x-system
// breaks down (one subsystem iteration cannot reach LocalTol), which is
// data loss; the first group, still running, is cancelled by it. The batch
// returns the data loss, not the cancellation it caused, and only after the
// cancelled group has returned.
func TestSolveChunkedDataLossIsNotCancellation(t *testing.T) {
	ps := chunkedSession(t, PrecondIdentity)
	bs := batchRHS(ps.N(), 2)
	probe := probeGroups(t, bs)
	cancelled := make(chan struct{})
	probe.wrap = func(first int, ps *Prepared, ctx context.Context, bs [][]float64, cfg *Config) ([]Solution, []error, error) {
		if first == 0 {
			// The first group runs only once the second has failed.
			select {
			case <-ctx.Done():
				close(cancelled)
			case <-time.After(10 * time.Second):
				return nil, nil, errors.New("the failing group never cancelled its sibling")
			}
			return ps.solveOn(ctx, nil, nil, bs, cfg, core.Options{})
		}
		return ps.solveOn(ctx, nil, nil, bs, cfg, core.Options{LocalMaxIter: 1})
	}
	opts := Config{BlockSize: 2, Tol: 1e-9, Schedule: faults.NewSchedule(faults.Simultaneous(6, 2, 3, 4))}
	_, err := ps.SolveChunked(context.Background(), bs, opts, nil)
	if !errors.Is(err, xerr.DataLoss) || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the failing group's data_loss", err)
	}
	select {
	case <-cancelled:
	default:
		t.Fatal("the sibling group was not cancelled")
	}
	if n := probe.live.Load(); n != 0 {
		t.Fatalf("%d groups still running after SolveChunked returned", n)
	}
	if n := core.LiveXSolves(); n != 0 {
		t.Fatalf("%d x-system solves left live", n)
	}
}

// TestBatchJobCountsBothGroups: a 16-column batch job at the default
// BlockSize is one chunk of two 8-column groups: solver_block_solves_total
// moves by 2 and solver_block_rhs_total by 16.
func TestBatchJobCountsBothGroups(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 4})
	defer e.Close()
	spec := tinySpec()
	spec.RHSBatch = batchRHS(256, 16)
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, e, id, 30*time.Second); st.State != StateDone {
		t.Fatalf("batch job ended %s: %s", st.State, st.Error)
	}
	snap := e.Metrics().Gather()
	for name, want := range map[string]float64{"solver_block_solves_total": 2, "solver_block_rhs_total": 16} {
		if v, _ := snap.Value(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

// TestUnclassedFailureIsInternal: every failure a job can meet is classed
// where it is raised, so one that reaches the job's terminal edge without a
// class is a defect. A batch job whose group returns a bare error ends
// failed internal, its message kept, and counts once on
// esrd_jobs_unclassed_total.
func TestUnclassedFailureIsInternal(t *testing.T) {
	orig := solveGroup
	solveGroup = func(*Prepared, context.Context, [][]float64, *Config) ([]Solution, []error, error) {
		return nil, nil, errors.New("group lost its columns")
	}
	t.Cleanup(func() { solveGroup = orig })
	e := New(Options{Workers: 1})
	defer e.Close()
	spec := tinySpec()
	spec.RHSBatch = batchRHS(256, 2)
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	for deadline := time.Now().Add(30 * time.Second); !st.State.Terminal(); time.Sleep(time.Millisecond) {
		if st, err = e.Get(id); err != nil || time.Now().After(deadline) {
			t.Fatalf("batch job: %+v, %v", st, err)
		}
	}
	if st.State != StateFailed || st.ErrorCode != xerr.Internal.Code() || st.Error != "group lost its columns" {
		t.Fatalf("batch job: %s, %q (%s); want failed internal with the group's message", st.State, st.ErrorCode, st.Error)
	}
	if n := e.metrics.jobsUnclassed.Value(); n != 1 {
		t.Fatalf("esrd_jobs_unclassed_total = %v, want 1", n)
	}
}
