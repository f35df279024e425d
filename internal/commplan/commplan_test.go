package commplan

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/matgen"
	"repro/internal/partition"
	"repro/internal/sparse"
)

func TestBackupRankFormula(t *testing.T) {
	// Paper Eqn. 5 with i=0, n=8: the sequence alternates +1,-1,+2,-2,...
	want := []int{1, 7, 2, 6, 3, 5, 4}
	for k := 1; k <= 7; k++ {
		if got := BackupRank(0, k, 8); got != want[k-1] {
			t.Fatalf("d_{0,%d} = %d, want %d", k, got, want[k-1])
		}
	}
	// Shift-invariance: d_ik = (d_0k + i) mod n.
	for i := 0; i < 8; i++ {
		for k := 1; k <= 7; k++ {
			if got, wantS := BackupRank(i, k, 8), (want[k-1]+i)%8; got != wantS {
				t.Fatalf("d_{%d,%d} = %d, want %d", i, k, got, wantS)
			}
		}
	}
}

func TestBackupRanksDistinct(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13, 16} {
		for i := 0; i < n; i++ {
			seen := map[int]bool{i: true}
			for k := 1; k < n; k++ {
				d := BackupRank(i, k, n)
				if seen[d] {
					t.Fatalf("n=%d i=%d: duplicate backup %d at k=%d", n, i, d, k)
				}
				seen[d] = true
			}
		}
	}
}

func TestBackupRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BackupRank(0, 4, 4) // k must be < n
}

func TestBuildAllConsistent(t *testing.T) {
	a := matgen.Poisson2D(12, 12)
	p := partition.NewBlockRow(a.Rows, 6)
	plans := BuildAll(a, p)
	if err := Validate(plans); err != nil {
		t.Fatal(err)
	}
}

func TestSendToMatchesSparsity(t *testing.T) {
	// Hand-built 4x4 over 2 ranks: blocks {0,1}, {2,3}.
	// Row 2 needs column 1; row 0 needs column 3.
	a := sparse.FromDense(4, 4, []float64{
		2, 0, 0, 1,
		0, 2, 0, 0,
		0, 1, 2, 0,
		0, 0, 0, 2,
	})
	p := partition.NewBlockRow(4, 2)
	plans := BuildAll(a, p)
	// Rank 0 sends element 1 to rank 1.
	if got := plans[0].SendTo[1]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("S_01 = %v, want [1]", got)
	}
	// Rank 1 sends element 3 to rank 0.
	if got := plans[1].SendTo[0]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("S_10 = %v, want [3]", got)
	}
	// Multiplicities: rank 0: element 0 -> 0, element 1 -> 1.
	if m := plans[0].Multiplicity(); m[0] != 0 || m[1] != 1 {
		t.Fatalf("multiplicity = %v", m)
	}
	// At phi = 1 Eqn. 6 is Chen's Eqn. 4: rank 0's one top-up set is its
	// leftover { s : m_0(s) = 0 } = {0}.
	r, err := BuildRedundancy(plans[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if cl := r.Extra[0]; len(cl) != 1 || cl[0] != 0 {
		t.Fatalf("Chen leftover = %v", cl)
	}
}

// TestRedundancyVolumeFloor pins Eqn. 6's per-SpMV volume — halo plus top-up
// elements over all ranks — against the floor sum_s max(m_i(s), phi) that any
// assignment giving every element phi distinct holders must pay, on the
// benchmark workloads' generators at 8 ranks. Eqn. 6 sits on the floor
// except for the circuit pattern at phi 3, where a few elements a late
// backup already receives are topped up in an earlier round too.
func TestRedundancyVolumeFloor(t *testing.T) {
	const ranks = 8
	for _, mat := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson", matgen.Poisson2D(64, 64)},
		{"elasticity", matgen.Elasticity3D(14, 14, 14, 27, 8)},
		{"circuit", matgen.CircuitLike(12000, 2.9, 0.35, 3)},
	} {
		p := partition.NewBlockRow(mat.a.Rows, ranks)
		plans := BuildAll(mat.a, p)
		for _, phi := range []int{1, 3, 7} {
			t.Run(fmt.Sprintf("%s/phi%d", mat.name, phi), func(t *testing.T) {
				excess := 0.0 // largest allowed volume/floor - 1
				if mat.name == "circuit" && phi == 3 {
					excess = 0.02
				}
				volume, floor := 0, 0
				for _, pl := range plans {
					r, err := BuildRedundancy(pl, phi)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range pl.Multiplicity() {
						volume += m
						floor += max(m, phi)
					}
					for _, ex := range r.Extra {
						volume += len(ex)
					}
				}
				t.Logf("volume %d, floor %d (%+.2f %%)", volume, floor, 100*float64(volume-floor)/float64(floor))
				if volume < floor {
					t.Fatalf("volume %d below the floor %d: some element has fewer than phi holders", volume, floor)
				}
				if float64(volume) > float64(floor)*(1+excess) {
					t.Fatalf("volume %d exceeds the floor %d by more than %.0f %%", volume, floor, 100*excess)
				}
			})
		}
	}
}

func TestBuildSymbolicMatchesOffline(t *testing.T) {
	a := matgen.CircuitLike(300, 3, 0.3, 17)
	const ranks = 5
	p := partition.NewBlockRow(a.Rows, ranks)
	offline := BuildAll(a, p)
	rt := cluster.New(ranks)
	err := rt.Run(func(c *cluster.Comm) error {
		lo, hi := p.Range(c.Rank())
		pl, err := BuildSymbolic(c, a.RowBlock(lo, hi), p)
		if err != nil {
			return err
		}
		ref := offline[c.Rank()]
		for k := 0; k < ranks; k++ {
			if !equalInts(pl.SendTo[k], ref.SendTo[k]) {
				return fmt.Errorf("rank %d SendTo[%d]: %v vs %v", c.Rank(), k, pl.SendTo[k], ref.SendTo[k])
			}
			if !equalInts(pl.RecvFrom[k], ref.RecvFrom[k]) {
				return fmt.Errorf("rank %d RecvFrom[%d] mismatch", c.Rank(), k)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGhostIndicesSorted(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	p := partition.NewBlockRow(a.Rows, 4)
	for _, pl := range BuildAll(a, p) {
		gi := pl.GhostIndices()
		lo, hi := p.Range(pl.Rank)
		for i, g := range gi {
			if i > 0 && gi[i-1] >= g {
				t.Fatal("ghost indices not strictly sorted")
			}
			if g >= lo && g < hi {
				t.Fatal("ghost index inside own block")
			}
		}
	}
}

// redundancyInvariant verifies the paper's Sec. 4.1 guarantee on a matrix:
// under BuildRedundancy(phi), every element of every rank's block has at
// least phi copies on phi distinct ranks other than the owner.
func redundancyInvariant(t *testing.T, a *sparse.CSR, ranks, phi int) {
	t.Helper()
	p := partition.NewBlockRow(a.Rows, ranks)
	for _, pl := range BuildAll(a, p) {
		r, err := BuildRedundancy(pl, phi)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := p.Range(pl.Rank)
		for off, hs := range r.Holders() {
			distinct := map[int]bool{}
			for _, h := range hs {
				if h == pl.Rank {
					t.Fatalf("rank %d holds its own element %d", h, lo+off)
				}
				distinct[h] = true
			}
			if len(distinct) < phi {
				t.Fatalf("element %d of rank %d has %d holders, want >= %d (holders=%v)",
					lo+off, pl.Rank, len(distinct), phi, hs)
			}
		}
	}
}

func TestRedundancyInvariantStructured(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"poisson2d": matgen.Poisson2D(14, 14),
		"circuit":   matgen.CircuitLike(250, 3, 0.4, 5),
		"banded":    matgen.BandedRandom(240, 7, 5, 6),
		"elastic":   matgen.Elasticity3D(4, 4, 3, 15, 7),
	}
	for name, a := range mats {
		for _, ranks := range []int{4, 7} {
			for _, phi := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/N%d/phi%d", name, ranks, phi), func(t *testing.T) {
					redundancyInvariant(t, a, ranks, phi)
				})
			}
		}
	}
}

// Property-based: random sparse SPD-patterned matrices keep the invariant
// for random (ranks, phi).
func TestRedundancyInvariantQuick(t *testing.T) {
	f := func(seed int64, rRaw, phiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(120)
		ranks := 2 + int(rRaw)%10
		phi := 1 + int(phiRaw)%(ranks-1)
		a := matgen.CircuitLike(n, 2+3*rng.Float64(), rng.Float64(), seed)
		p := partition.NewBlockRow(n, ranks)
		for _, pl := range BuildAll(a, p) {
			r, err := BuildRedundancy(pl, phi)
			if err != nil {
				return false
			}
			for _, hs := range r.Holders() {
				distinct := map[int]bool{}
				for _, h := range hs {
					if h == pl.Rank {
						return false
					}
					distinct[h] = true
				}
				if len(distinct) < phi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Survivability: for ANY failure set of size <= phi containing the owner,
// every element still has a surviving holder (this is the operational form
// of the invariant used by the recovery).
func TestSurvivabilityUnderWorstCaseFailures(t *testing.T) {
	a := matgen.CircuitLike(180, 3, 0.5, 21)
	const ranks, phi = 6, 3
	p := partition.NewBlockRow(a.Rows, ranks)
	plans := BuildAll(a, p)
	// Enumerate all failure sets of size phi that include rank 2.
	owner := 2
	r, err := BuildRedundancy(plans[owner], phi)
	if err != nil {
		t.Fatal(err)
	}
	holders := r.Holders()
	lo, _ := p.Range(owner)
	for f1 := 0; f1 < ranks; f1++ {
		for f2 := f1 + 1; f2 < ranks; f2++ {
			if f1 != owner && f2 != owner {
				continue
			}
			for f3 := f2 + 1; f3 < ranks; f3++ {
				failed := map[int]bool{f1: true, f2: true, f3: true}
				if !failed[owner] {
					continue
				}
				_, uncovered := AssignHolders(holders, lo, failed)
				if len(uncovered) > 0 {
					t.Fatalf("failure set %v loses elements %v", failed, uncovered)
				}
			}
		}
	}
}

// Chen's single-failure strategy (phi = 1) cannot survive two adjacent
// failures when R^c_i is non-empty: reproduce the paper's Sec. 3
// counterexample.
func TestChenStrategyFailsForAdjacentDoubleFailure(t *testing.T) {
	// Diagonal-only coupling between blocks: rank 1's interior elements are
	// sent to nobody, so Chen tops them up at rank 2 only.
	a := matgen.BandedRandom(120, 2, 1.5, 9)
	const ranks = 6
	p := partition.NewBlockRow(a.Rows, ranks)
	plans := BuildAll(a, p)
	r1, err := BuildRedundancy(plans[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Extra[0]) == 0 {
		t.Skip("matrix has no Chen leftover on rank 1; adjust generator")
	}
	lo, _ := p.Range(1)
	// Ranks 1 and 2 fail together (contiguous, like the paper's experiments).
	_, uncovered := AssignHolders(r1.Holders(), lo, map[int]bool{1: true, 2: true})
	if len(uncovered) == 0 {
		t.Fatal("expected lost elements under Chen with adjacent double failure")
	}
	// The phi = 2 protocol survives the same failure pair.
	r2, err := BuildRedundancy(plans[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	_, uncovered2 := AssignHolders(r2.Holders(), lo, map[int]bool{1: true, 2: true})
	if len(uncovered2) != 0 {
		t.Fatalf("phi=2 protocol lost %v", uncovered2)
	}
}

// When the SpMV pattern already provides >= phi copies everywhere, no extra
// traffic is generated (lower bound 0 of the Sec. 4.2 interval).
func TestNoExtrasWhenPatternSuffices(t *testing.T) {
	// Dense-banded matrix with wide band: every element is needed by many
	// neighbours on both sides.
	n, ranks := 64, 8
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for d := -24; d <= 24; d++ {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			v := -1.0
			if d == 0 {
				v = 50
			}
			coo.Add(i, j, v)
		}
	}
	a := coo.ToCSR()
	p := partition.NewBlockRow(n, ranks)
	for _, pl := range BuildAll(a, p) {
		r, err := BuildRedundancy(pl, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, extra := range r.Extra {
			if len(extra) != 0 {
				t.Fatalf("rank %d round %d: unexpected extras %v", pl.Rank, k+1, extra)
			}
		}
	}
}

// On a circulant banded pattern whose halo covers the Eqn. 5 backups of every
// rank, boundary ranks included, the backup sequence sends zero extras.
func TestStrategiesAgreeOnWideBand(t *testing.T) {
	a := circulantBand(128, 48)
	p := partition.NewBlockRow(a.Rows, 8)
	for _, pl := range BuildAll(a, p) {
		r, err := BuildRedundancy(pl, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, ex := range r.Extra {
			if len(ex) != 0 {
				t.Fatalf("rank %d: unexpected extras in round %d", pl.Rank, k+1)
			}
		}
	}
}

// circulantBand builds an SPD circulant band matrix (couplings wrap around
// modulo n), so the Sec. 5 hypothesis "every A_{I_dik, I_i} has a nonzero"
// holds for all ranks including the boundary ones.
func circulantBand(n, w int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(2*w)+1)
		for d := 1; d <= w; d++ {
			coo.Add(i, (i+d)%n, -0.5)
			coo.Add(i, (i-d+n)%n, -0.5)
		}
	}
	return coo.ToCSR()
}

// Sec. 5 sufficient condition: if every submatrix A_{I_dik, I_i} contains a
// nonzero, no extra latencies occur.
func TestSec5NoExtraLatencyCondition(t *testing.T) {
	n, ranks, phi := 96, 8, 3
	// Band half-width >= ceil(phi*n/(2N)) ensures the condition; the
	// circulant wraparound keeps it true at the boundary ranks too.
	a := circulantBand(n, 30)
	p := partition.NewBlockRow(n, ranks)
	plans := BuildAll(a, p)
	for _, pl := range plans {
		r, err := BuildRedundancy(pl, phi)
		if err != nil {
			t.Fatal(err)
		}
		// Verify the hypothesis actually holds for this matrix, then the
		// conclusion.
		for k := 1; k <= phi; k++ {
			d := BackupRank(pl.Rank, k, ranks)
			if len(pl.SendTo[d]) == 0 {
				// Hypothesis violated; the test matrix must be re-tuned.
				t.Fatalf("test setup: S_{%d,%d} empty", pl.Rank, d)
			}
		}
		for k, lat := range r.ExtraLatencyRounds() {
			if lat {
				t.Fatalf("rank %d: extra latency in round %d despite banded pattern", pl.Rank, k+1)
			}
		}
	}
}

func TestExtraLatencyDetected(t *testing.T) {
	// Block-diagonal matrix: no SpMV traffic at all, so every redundancy
	// round needs a fresh message (upper end of the Sec. 4.2 interval).
	n, ranks := 40, 4
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
	}
	a := coo.ToCSR()
	p := partition.NewBlockRow(n, ranks)
	for _, pl := range BuildAll(a, p) {
		r, err := BuildRedundancy(pl, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, lat := range r.ExtraLatencyRounds() {
			if !lat {
				t.Fatalf("rank %d round %d: expected extra latency", pl.Rank, k+1)
			}
			if len(r.Extra[k]) != p.Size(pl.Rank) {
				t.Fatalf("rank %d round %d: extras %d, want full block %d",
					pl.Rank, k+1, len(r.Extra[k]), p.Size(pl.Rank))
			}
		}
	}
}

func TestSendListsPiggyback(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	p := partition.NewBlockRow(a.Rows, 4)
	plans := BuildAll(a, p)
	r, err := BuildRedundancy(plans[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	lists := r.SendLists()
	// Every halo index still present.
	for k, s := range plans[1].SendTo {
		for _, g := range s {
			if !contains(lists[k], g) {
				t.Fatalf("halo index %d to rank %d dropped", g, k)
			}
		}
	}
	// Every extra present at its backup target.
	for k1, ex := range r.Extra {
		d := r.Backups[k1]
		for _, g := range ex {
			if !contains(lists[d], g) {
				t.Fatalf("extra index %d to backup %d dropped", g, d)
			}
		}
	}
	// Lists sorted and duplicate-free.
	for _, l := range lists {
		for i := 1; i < len(l); i++ {
			if l[i-1] >= l[i] {
				t.Fatal("send list not sorted/deduped")
			}
		}
	}
}

func contains(s []int, g int) bool {
	for _, v := range s {
		if v == g {
			return true
		}
	}
	return false
}

func TestRecvListsMirrorsSendLists(t *testing.T) {
	a := matgen.CircuitLike(200, 3, 0.3, 31)
	const ranks = 5
	p := partition.NewBlockRow(a.Rows, ranks)
	plans := BuildAll(a, p)
	reds := make([]*Redundancy, ranks)
	for i, pl := range plans {
		var err error
		reds[i], err = BuildRedundancy(pl, 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	for me := 0; me < ranks; me++ {
		rls := RecvLists(me, reds)
		for src := 0; src < ranks; src++ {
			if src == me {
				continue
			}
			if !equalInts(rls[src], reds[src].SendLists()[me]) {
				t.Fatalf("RecvLists(%d)[%d] mismatch", me, src)
			}
		}
	}
}

func TestRetentionStoreLookup(t *testing.T) {
	idxFrom := [][]int{nil, {10, 12, 15}, nil}
	rt := NewRetention(idxFrom, 1)
	rt.Store(0, [][]float64{nil, {100, 120, 150}, nil})
	rt.Store(1, [][]float64{nil, {101, 121, 151}, nil})

	v0, err := rt.ValuesFor(0, 1, []int{12})
	if err != nil || v0[0] != 120 {
		t.Fatalf("ValuesFor(0) = %v, %v", v0, err)
	}
	v, err := rt.ValuesFor(1, 1, []int{15, 10})
	if err != nil || v[0] != 151 || v[1] != 101 {
		t.Fatalf("ValuesFor = %v, %v", v, err)
	}
	// Both slots are taken: Store only adds.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Store into a full retention did not panic")
			}
		}()
		rt.Store(2, [][]float64{nil, {102, 122, 152}, nil})
	}()
	// Keeping generation 1 drops 0 and hands back its payload.
	if dropped := rt.Keep(1); len(dropped) != 1 || dropped[0][0] != 100 {
		t.Fatalf("Keep(1) dropped %v, want generation 0's payload", dropped)
	}
	rt.Store(2, [][]float64{nil, {102, 122, 152}, nil})
	if _, err := rt.ValuesFor(0, 1, []int{10}); err == nil {
		t.Fatal("generation 0 should be dropped")
	}
	newest, oldest := rt.Generations()
	if newest != 2 || oldest != 1 {
		t.Fatalf("generations = %d, %d", newest, oldest)
	}
	// Reads are non-destructive.
	if _, err := rt.ValuesFor(1, 1, []int{12}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ValuesFor(1, 1, []int{12}); err != nil {
		t.Fatal(err)
	}
	// Unknown index errors.
	if _, err := rt.ValuesFor(1, 1, []int{11}); err == nil {
		t.Fatal("expected error for index not held")
	}
	rt.Wipe()
	if _, err := rt.ValuesFor(1, 1, []int{12}); err == nil {
		t.Fatal("Wipe should drop all generations")
	}
	// The wiped payloads recycle at the next Keep.
	if dropped := rt.Keep(2); len(dropped) != 2 {
		t.Fatalf("Keep after Wipe dropped %d payloads, want 2", len(dropped))
	}
}

func TestAssignHoldersPrefersLowestSurvivor(t *testing.T) {
	holders := [][]int{
		{1, 3, 5},
		{3, 5},
		{5},
	}
	byHolder, uncovered := AssignHolders(holders, 100, map[int]bool{1: true})
	if len(uncovered) != 0 {
		t.Fatalf("uncovered = %v", uncovered)
	}
	if !equalInts(byHolder[3], []int{100, 101}) || !equalInts(byHolder[5], []int{102}) {
		t.Fatalf("assignment = %v", byHolder)
	}
	_, uncovered = AssignHolders(holders, 100, map[int]bool{5: true, 3: true, 1: true})
	if !equalInts(uncovered, []int{100, 101, 102}) {
		t.Fatalf("uncovered = %v", uncovered)
	}
}

func TestBuildRedundancyPhiZeroAndErrors(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	p := partition.NewBlockRow(a.Rows, 4)
	pl := BuildAll(a, p)[0]
	r, err := BuildRedundancy(pl, 0)
	if err != nil || len(r.Extra) != 0 || len(r.Backups) != 0 {
		t.Fatalf("phi=0: %v %v", r, err)
	}
	if _, err := BuildRedundancy(pl, 4); err == nil {
		t.Fatal("phi = ranks must error")
	}
	if _, err := BuildRedundancy(pl, -1); err == nil {
		t.Fatal("negative phi must error")
	}
}

func TestExtraCountsMonotoneWhenBackupsGetNoHalo(t *testing.T) {
	// The paper claims |R^c_i1| >= |R^c_i2| >= ... >= |R^c_iphi|. Taken
	// literally, Eqn. 6 admits counterexamples when a backup target already
	// receives halo traffic (an element excluded from an early round because
	// it is in S_{i,d_ik} re-enters a later round). The provable form, and
	// the case the claim addresses, is when the backup targets receive no
	// halo traffic: then g_i = 0 and R^c_ik = { s : m_i(s) <= phi-k },
	// monotone by construction. Build a circulant pattern whose couplings
	// jump exactly 3 blocks, so backups at block distances 1, 1, 2 get no
	// halo.
	n, ranks, phi := 256, 8, 3
	bs := n / ranks
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		coo.Add(i, (i+3*bs)%n, -1)
		coo.Add(i, (i-3*bs+n)%n, -1)
	}
	a := coo.ToCSR()
	p := partition.NewBlockRow(n, ranks)
	for _, pl := range BuildAll(a, p) {
		r, err := BuildRedundancy(pl, phi)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= phi; k++ {
			d := BackupRank(pl.Rank, k, ranks)
			if len(pl.SendTo[d]) != 0 {
				t.Fatalf("setup: backup %d of rank %d receives halo", d, pl.Rank)
			}
		}
		c := r.ExtraCounts()
		for k := 1; k < len(c); k++ {
			if c[k-1] < c[k] {
				t.Fatalf("rank %d: |R^c_%d| = %d < |R^c_%d| = %d",
					pl.Rank, k, c[k-1], k+1, c[k])
			}
		}
		// Every element is sent to exactly 2 ranks by the halo; with phi=3
		// exactly one top-up round is needed, covering the whole block.
		if c[0] != bs || c[1] != 0 || c[2] != 0 {
			t.Fatalf("rank %d: extra counts %v, want [%d 0 0]", pl.Rank, c, bs)
		}
	}
}
