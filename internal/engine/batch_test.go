package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/xerr"
)

// batchRHS builds k deterministic distinct right-hand sides of length n.
func batchRHS(n, k int) [][]float64 {
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = 1 + 0.5*math.Sin(float64(j+1)*float64(i+1))
		}
	}
	return bs
}

// TestBatchJobEndToEnd runs a batch job through the engine: the result must
// carry one solution per submitted column (XS/Results aligned with the
// batch, X/Result mirroring column 0), each bitwise identical to a
// single-RHS job on the same right-hand side.
func TestBatchJobEndToEnd(t *testing.T) {
	e := New(Options{Workers: 2, QueueCap: 8})
	defer e.Close()
	const n, k = 256, 5
	bs := batchRHS(n, k)
	spec := tinySpec()
	spec.RHSBatch = bs
	spec.KeepSolution = true
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("batch job ended %s: %s", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.XS) != k || len(st.Result.Results) != k {
		t.Fatalf("batch result shape: %+v", st.Result)
	}
	for i := range st.Result.X {
		if st.Result.X[i] != st.Result.XS[0][i] {
			t.Fatal("Result.X does not mirror column 0")
		}
	}
	for j := 0; j < k; j++ {
		solo := tinySpec()
		solo.RHS = bs[j]
		solo.KeepSolution = true
		sid, err := e.Submit(solo)
		if err != nil {
			t.Fatal(err)
		}
		sst := waitTerminal(t, e, sid, 30*time.Second)
		if sst.State != StateDone {
			t.Fatalf("solo job %d ended %s: %s", j, sst.State, sst.Error)
		}
		if sst.Result.Result.Iterations != st.Result.Results[j].Iterations {
			t.Fatalf("column %d: batch %d iterations, solo %d",
				j, st.Result.Results[j].Iterations, sst.Result.Result.Iterations)
		}
		for i := range sst.Result.X {
			if st.Result.XS[j][i] != sst.Result.X[i] {
				t.Fatalf("column %d: X[%d] batch %x, solo %x",
					j, i, st.Result.XS[j][i], sst.Result.X[i])
			}
		}
	}
	// The batch counters moved: k columns through the batch surface, all of
	// them via the blocked path (default ESR strategy, default block size).
	snap := e.Metrics().Gather()
	if v, _ := snap.Value("solver_batch_rhs_total"); v < k {
		t.Fatalf("solver_batch_rhs_total = %v, want >= %d", v, k)
	}
	if v, _ := snap.Value("solver_block_rhs_total"); v < k {
		t.Fatalf("solver_block_rhs_total = %v, want >= %d", v, k)
	}
	if v, _ := snap.Value("solver_block_solves_total"); v < 1 {
		t.Fatalf("solver_block_solves_total = %v, want >= 1", v)
	}
}

// TestBatchJobUnderFailures runs a blocked batch job with a two-rank
// failure schedule end to end.
func TestBatchJobUnderFailures(t *testing.T) {
	e := New(Options{Workers: 1, QueueCap: 4})
	defer e.Close()
	spec := resilientSpec()
	spec.RHSBatch = batchRHS(256, 3)
	spec.KeepSolution = true
	id, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, e, id, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("resilient batch job ended %s: %s", st.State, st.Error)
	}
	for j, res := range st.Result.Results {
		if !res.Converged {
			t.Fatalf("column %d did not converge", j)
		}
		if len(res.Reconstructions) == 0 {
			t.Fatalf("column %d saw no reconstruction", j)
		}
	}
}

// TestBatchSpecValidation pins the typed batch validation: mutual exclusion
// with RHS, per-column length and finiteness errors naming the column, and
// the BlockSize range check.
func TestBatchSpecValidation(t *testing.T) {
	good := batchRHS(256, 2)
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"both rhs and batch", func() JobSpec {
			s := tinySpec()
			s.RHS = good[0]
			s.RHSBatch = good
			return s
		}()},
		{"ragged batch", func() JobSpec {
			s := tinySpec()
			s.RHSBatch = [][]float64{good[0], good[1][:100]}
			return s
		}()},
		{"empty batch column", func() JobSpec {
			s := tinySpec()
			s.RHSBatch = [][]float64{{}}
			return s
		}()},
		{"NaN in batch", func() JobSpec {
			s := tinySpec()
			bad := append([]float64(nil), good[1]...)
			bad[7] = math.NaN()
			s.RHSBatch = [][]float64{good[0], bad}
			return s
		}()},
		{"negative block size", func() JobSpec {
			s := tinySpec()
			s.Config.BlockSize = -3
			return s
		}()},
		{"oversized block size", func() JobSpec {
			s := tinySpec()
			s.Config.BlockSize = MaxBlockSize + 1
			return s
		}()},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}

	// The typed errors name the offending column.
	s := tinySpec()
	bad := append([]float64(nil), good[1]...)
	bad[7] = math.Inf(1)
	s.RHSBatch = [][]float64{good[0], bad}
	var rhsErr *InvalidRHSError
	if err := s.Validate(); !errors.As(err, &rhsErr) || rhsErr.Index != 1 || rhsErr.Elem != 7 {
		t.Fatalf("Inf batch: err = %v, want *InvalidRHSError{Index: 1, Elem: 7}", err)
	}
	s = tinySpec()
	s.Config.BlockSize = -3
	var cfgErr *InvalidConfigError
	if err := s.Validate(); !errors.As(err, &cfgErr) || cfgErr.Field != "block_size" || cfgErr.Value != -3 {
		t.Fatalf("bad block size: err = %v, want *InvalidConfigError{block_size, -3}", err)
	}

	// A registered matrix rejects batch columns of the wrong length at
	// Submit, naming column 0 (intra-batch consistency is already enforced).
	e := New(Options{Workers: 1, QueueCap: 4})
	defer e.Close()
	rec, err := e.PutMatrix(MatrixSpec{Generator: "poisson2d", Params: map[string]float64{"nx": 16, "ny": 16}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(JobSpec{MatrixID: rec.ID, RHSBatch: batchRHS(100, 2)}); !errors.As(err, &rhsErr) {
		t.Fatalf("registered-matrix length mismatch: err = %v, want *InvalidRHSError", err)
	}
}

// TestBatchJobRejectedOnNetCoordinator pins the multi-process restriction:
// a coordinator daemon (NetRunner installed) refuses a net-transport batch
// job at Submit, classed failed_precondition, instead of accepting it and
// failing it later — and never dispatches it.
func TestBatchJobRejectedOnNetCoordinator(t *testing.T) {
	e := New(Options{
		Workers: 1, QueueCap: 4, Defaults: Config{Transport: TransportNet},
		NetRunner: func(ctx context.Context, spec JobSpec, progress func(core.ProgressEvent)) (Solution, error) {
			return Solution{}, errors.New("unexpected dispatch")
		},
	})
	defer e.Close()
	spec := tinySpec()
	spec.Config.Transport = TransportNet
	spec.RHSBatch = batchRHS(256, 2)
	id, err := e.Submit(spec)
	if !errors.Is(err, xerr.FailedPrecondition) {
		t.Fatalf("net batch job: id %q, err %v; want a failed_precondition refusal", id, err)
	}
	if jobs := e.List(); len(jobs) != 0 {
		t.Fatalf("the refused job left %d records", len(jobs))
	}
}
