package commplan

import (
	"fmt"
	"sort"
)

// BackupRank returns d_ik, the k-th backup rank of rank i among n ranks
// (paper Eqn. 5, k = 1, 2, ..., phi < n):
//
//	d_ik = (i + ceil(k/2)) mod n   if k odd
//	d_ik = (i - k/2) mod n         if k even
//
// The sequence alternates +1, -1, +2, -2, ... around rank i, which keeps the
// backup traffic within a diagonal band of the matrix (Sec. 5).
func BackupRank(i, k, n int) int {
	if k < 1 || k >= n {
		panic(fmt.Sprintf("commplan: backup index k=%d out of range [1,%d)", k, n))
	}
	var d int
	if k%2 == 1 {
		d = i + (k+1)/2
	} else {
		d = i - k/2
	}
	d %= n
	if d < 0 {
		d += n
	}
	return d
}

// Redundancy holds, for one rank, the ESR redundancy protocol state derived
// from its halo plan: the backup sequence and the top-up sets R^c_ik of
// Eqn. 6, which guarantee every element of the rank's block at least Phi
// copies on Phi distinct other ranks after each SpMV.
//
// No element can reach fewer than max(m_i(s), Phi) other ranks, so one
// SpMV's halo plus top-up volume is at least sum_s max(m_i(s), Phi). Eqn. 6
// is not always on that floor: an element a late-round backup already
// receives counts in g_i(s), which can admit it to an earlier round's top-up
// set although it needs no copy there. On the benchmark workloads'
// generators at 8 ranks the volume equals the floor for Poisson and
// elasticity and is 1.6 % above it for the circuit pattern at Phi 3
// (TestRedundancyVolumeFloor).
type Redundancy struct {
	// Phi is the number of simultaneous node failures tolerated.
	Phi int
	// Plan is the halo plan the redundancy was derived from.
	Plan *HaloPlan
	// Backups[k-1] = d_ik for k = 1..Phi.
	Backups []int
	// Extra[k-1] lists, sorted, the global indices of R^c_ik: the elements
	// additionally sent to Backups[k-1] in communication round k.
	Extra [][]int
}

// BuildRedundancy evaluates Eqns. 5 and 6 for the plan's rank. phi must be
// in [0, ranks); phi = 0 returns an empty protocol (plain PCG).
func BuildRedundancy(pl *HaloPlan, phi int) (*Redundancy, error) {
	n := pl.P.Ranks()
	if phi < 0 || phi >= n {
		return nil, fmt.Errorf("commplan: phi=%d out of range [0,%d)", phi, n)
	}
	r := &Redundancy{Phi: phi, Plan: pl}
	if phi == 0 {
		return r, nil
	}
	lo, hi := pl.P.Range(pl.Rank)
	sz := hi - lo

	r.Backups = make([]int, phi)
	for k := 1; k <= phi; k++ {
		r.Backups[k-1] = BackupRank(pl.Rank, k, n)
	}

	inBackupSend := make([][]bool, phi) // inBackupSend[k-1][off]: s in S_{i,d_ik}
	for k := 1; k <= phi; k++ {
		d := r.Backups[k-1]
		member := make([]bool, sz)
		for _, g := range pl.SendTo[d] {
			member[g-lo] = true
		}
		inBackupSend[k-1] = member
	}
	m := pl.Multiplicity()
	r.Extra = make([][]int, phi)

	// The paper's Eqn. 6. g_i(s): number of backup ranks that already
	// receive s during SpMV.
	g := make([]int, sz)
	for k := 0; k < phi; k++ {
		for off, in := range inBackupSend[k] {
			if in {
				g[off]++
			}
		}
	}
	for k := 1; k <= phi; k++ {
		var extra []int
		for off := 0; off < sz; off++ {
			if !inBackupSend[k-1][off] && m[off]-g[off] <= phi-k {
				extra = append(extra, lo+off)
			}
		}
		r.Extra[k-1] = extra
	}
	return r, nil
}

// Holders returns, for every element of the rank's block (indexed by local
// offset), the sorted list of other ranks holding a copy of the element
// after the SpMV + redundancy rounds: { k : s in S_ik } u { d_ik : s in
// R^c_ik }. This drives both the redundancy invariant check and the tailored
// recovery gather.
func (r *Redundancy) Holders() [][]int {
	pl := r.Plan
	lo, hi := pl.P.Range(pl.Rank)
	holders := make([][]int, hi-lo)
	for k, idx := range pl.SendTo {
		if k == pl.Rank {
			continue
		}
		for _, g := range idx {
			holders[g-lo] = append(holders[g-lo], k)
		}
	}
	for k1, idx := range r.Extra {
		d := r.Backups[k1]
		for _, g := range idx {
			holders[g-lo] = append(holders[g-lo], d)
		}
	}
	for _, h := range holders {
		sort.Ints(h)
	}
	return holders
}

// SendLists merges the halo and redundancy traffic per destination: for each
// rank k, the sorted global indices transmitted to k during the SpMV of one
// iteration (S_ik plus any R^c_ik' with d_ik' = k). Merged lists mean the
// extras piggyback on the halo message whenever one exists, exactly the
// piggybacking assumption of the Sec. 4.2 analysis.
func (r *Redundancy) SendLists() [][]int {
	pl := r.Plan
	n := pl.P.Ranks()
	out := make([][]int, n)
	for k := 0; k < n; k++ {
		if k == pl.Rank || len(pl.SendTo[k]) == 0 {
			continue
		}
		out[k] = append([]int(nil), pl.SendTo[k]...)
	}
	for k1, idx := range r.Extra {
		d := r.Backups[k1]
		out[d] = mergeSorted(out[d], idx)
	}
	return out
}

// RecvLists returns, per source rank, the sorted global indices this rank
// receives during one SpMV under the given redundancy protocols of all
// ranks. srcRedundancy maps source rank -> its Redundancy (as built by
// BuildRedundancy on the source's plan). Exposed for offline harness setup;
// the distributed path exchanges these lists instead.
func RecvLists(me int, srcRedundancy []*Redundancy) [][]int {
	out := make([][]int, len(srcRedundancy))
	for src, r := range srcRedundancy {
		if src == me || r == nil {
			continue
		}
		lists := r.SendLists()
		out[src] = lists[me]
	}
	return out
}

// ExtraLatencyRounds reports, for each round k = 1..Phi, whether sending
// R^c_ik incurs an extra message latency on this rank: true iff the backup
// target receives no halo traffic (S_{i,d_ik} empty) but the top-up set is
// non-empty (Sec. 4.2).
func (r *Redundancy) ExtraLatencyRounds() []bool {
	out := make([]bool, r.Phi)
	for k1 := range out {
		d := r.Backups[k1]
		out[k1] = len(r.Plan.SendTo[d]) == 0 && len(r.Extra[k1]) > 0
	}
	return out
}

// ExtraCounts returns |R^c_ik| for k = 1..Phi.
func (r *Redundancy) ExtraCounts() []int {
	out := make([]int, r.Phi)
	for k1 := range out {
		out[k1] = len(r.Extra[k1])
	}
	return out
}

// mergeSorted returns the sorted union of two sorted, duplicate-free int
// slices.
func mergeSorted(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
