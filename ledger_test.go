package esr

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// updateLedger rewrites testdata/answer_ledger.txt from the current code
// instead of checking against it: go test -run TestAnswerLedger -update-ledger.
var updateLedger = flag.Bool("update-ledger", false, "rewrite testdata/answer_ledger.txt from the current code")

const ledgerPath = "testdata/answer_ledger.txt"

// ledgerRHS is the ledger's own right-hand side generator, kept apart from
// the other tests' helpers so that nothing but the solver can move a line.
func ledgerRHS(n, seed int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.25*math.Cos(float64(seed+2)*float64(i+1))
	}
	return b
}

// ledgerLine renders one solution: its iteration count, the subsystem
// iteration count of every reconstruction, and an FNV-1a hash of the bits of
// x.
func ledgerLine(name string, sol Solution) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range sol.X {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	sub := "-"
	if recs := sol.Result.Reconstructions; len(recs) > 0 {
		parts := make([]string, len(recs))
		for i, r := range recs {
			parts[i] = strconv.Itoa(r.SubIterations)
		}
		sub = strings.Join(parts, ",")
	}
	return fmt.Sprintf("%s %d %s %016x", name, sol.Result.Iterations, sub, h.Sum64())
}

// TestAnswerLedger holds every answer the solver gives to a fixed set of
// problems to the bit: the three benchmark workloads' generators at test
// sizes, under block-Jacobi ILU, Jacobi, IC(0) in Alg. 1 and IC(0) in the
// split recurrence, each as one solo solve, eight solves recovered from a
// different victim set, one 11-column batch and one 4-column batch. The
// ledger was written before the blocked kernels were regrouped into column
// tiles, so a kernel change that moves any bit of any solution, or any
// iteration or subsystem iteration count, fails here. Go fuses
// multiply-adds on some architectures, which changes the bits legitimately,
// so the ledger is checked on amd64 only.
func TestAnswerLedger(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("answer ledger was recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const ranks, phi = 8, 3
	victims := [][]int{{0}, {7}, {3}, {1, 2}, {0, 7}, {4, 5, 6}, {1, 4, 6}, {0, 3, 5}}
	matrices := []struct {
		name string
		a    *Matrix
	}{
		{"poisson24", Poisson2D(24, 24)},
		{"elasticity5", Elasticity3D(5, 5, 5, 27, 8)},
		{"circuit1200", CircuitLike(1200, 2.9, 0.35, 3)},
	}
	precs := []struct{ name, p, method string }{
		{"ilu", PrecondBlockJacobiILU, ""},
		{"jacobi", PrecondJacobi, ""},
		{"ic0", PrecondIC0, ""},
		{"ic0-spcg", PrecondIC0, MethodSPCG},
	}
	ctx := context.Background()
	var got []string
	for _, m := range matrices {
		for _, pc := range precs {
			s, err := NewSolver(m.a, Config{Ranks: ranks, Phi: phi, Preconditioner: pc.p})
			if err != nil {
				t.Fatal(err)
			}
			base := m.name + "/" + pc.name
			method := Config{Method: pc.method}
			sol, err := s.Solve(ctx, ledgerRHS(m.a.Rows, 0), method)
			if err != nil {
				t.Fatalf("%s solo: %v", base, err)
			}
			got = append(got, ledgerLine(base+"/solo", sol))
			// Fail at the third iteration: every case here runs longer.
			for v, vs := range victims {
				sched := NewSchedule(Simultaneous(3, vs...))
				sol, err := s.Solve(ctx, ledgerRHS(m.a.Rows, 1+v), method, Config{Schedule: sched})
				if err != nil {
					t.Fatalf("%s victims %v: %v", base, vs, err)
				}
				name := fmt.Sprintf("%s/fail%s", base, strings.ReplaceAll(fmt.Sprint(vs), " ", ","))
				got = append(got, ledgerLine(name, sol))
			}
			// The SpMM of a batch stays k columns wide as columns land: 11
			// columns reach the 8-column tile and the single-column
			// remainder, 4 columns the 4-column tile.
			for _, k := range []int{11, 4} {
				bs := make([][]float64, k)
				for c := range bs {
					bs[c] = ledgerRHS(m.a.Rows, 100*k+c)
				}
				sols, err := s.SolveBatch(ctx, bs, method, Config{BlockSize: k})
				if err != nil {
					t.Fatalf("%s batch of %d: %v", base, k, err)
				}
				for c, sol := range sols {
					got = append(got, ledgerLine(fmt.Sprintf("%s/batch%d.%d", base, k, c), sol))
				}
			}
			s.Close()
		}
	}

	if *updateLedger {
		out := "# name iterations subsystem-iterations fnv64a(x bits); regenerate with -update-ledger\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(ledgerPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d solutions, ledger has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer moved:\n  got    %s\n  ledger %s", got[i], want[i])
		}
	}
}
