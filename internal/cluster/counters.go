package cluster

import "sync/atomic"

// Category labels a communication operation for the overhead accounting of
// the paper's analysis (Sec. 4.2): the ESR redundancy traffic is separated
// from the SpMV halo traffic it piggybacks on, and recovery traffic is
// separated from steady-state traffic.
type Category int

const (
	// CatOther is uncategorised traffic.
	CatOther Category = iota
	// CatHalo is SpMV halo-exchange traffic (the S_ik sets).
	CatHalo
	// CatRedundancy is the extra ESR traffic (the R^c_ik sets).
	CatRedundancy
	// CatCollective is reduction/broadcast traffic.
	CatCollective
	// CatRecovery is reconstruction-phase traffic.
	CatRecovery
	// CatCheckpoint is checkpoint/restart traffic (baseline comparator).
	CatCheckpoint
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatOther:
		return "other"
	case CatHalo:
		return "halo"
	case CatRedundancy:
		return "redundancy"
	case CatCollective:
		return "collective"
	case CatRecovery:
		return "recovery"
	case CatCheckpoint:
		return "checkpoint"
	}
	return "unknown"
}

// Categories lists all defined categories.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Counters accumulates global message and float-element counts per category.
// All methods are safe for concurrent use.
//
// Every send is counted, so the counters are sharded by writer: each rank
// adds to a shard of its own (no cache line bounces between the rank
// goroutines), and readers sum the shards — exactly what one shared set
// would hold.
type Counters struct {
	shards []counterShard // [rank] for traffic that rank sent or stored
}

type counterShard struct {
	msgs   [numCategories]atomic.Int64
	floats [numCategories]atomic.Int64
	_      [64]byte // keeps neighbouring shards off each other's cache lines
}

func newCounters(size int) Counters {
	return Counters{shards: make([]counterShard, size)}
}

func (sh *counterShard) record(cat Category, msgs, floats int) {
	if cat < 0 || cat >= numCategories {
		cat = CatOther
	}
	sh.msgs[cat].Add(int64(msgs))
	sh.floats[cat].Add(int64(floats))
}

// reclassify moves float-element counts between categories within a shard.
func (sh *counterShard) reclassify(from, to Category, floats int64) {
	sh.floats[from].Add(-floats)
	sh.floats[to].Add(floats)
}

// Messages returns the number of messages recorded under cat.
func (ct *Counters) Messages(cat Category) int64 { return ct.Snapshot().Msgs[cat] }

// Floats returns the number of float64 elements recorded under cat.
func (ct *Counters) Floats(cat Category) int64 { return ct.Snapshot().Floats[cat] }

// TotalMessages returns the number of messages across all categories.
func (ct *Counters) TotalMessages() int64 {
	var s int64
	for _, v := range ct.Snapshot().Msgs {
		s += v
	}
	return s
}

// TotalFloats returns the number of float64 elements across all categories.
func (ct *Counters) TotalFloats() int64 {
	var s int64
	for _, v := range ct.Snapshot().Floats {
		s += v
	}
	return s
}

// Snapshot captures the current counter values.
type Snapshot struct {
	Msgs   [numCategories]int64
	Floats [numCategories]int64
}

// Snapshot returns the current values, summed over the shards.
func (ct *Counters) Snapshot() Snapshot {
	var s Snapshot
	for k := range ct.shards {
		sh := &ct.shards[k]
		for i := 0; i < int(numCategories); i++ {
			s.Msgs[i] += sh.msgs[i].Load()
			s.Floats[i] += sh.floats[i].Load()
		}
	}
	return s
}

// Diff returns the per-category deltas since an earlier snapshot.
func (s Snapshot) Diff(earlier Snapshot) Snapshot {
	var d Snapshot
	for i := 0; i < int(numCategories); i++ {
		d.Msgs[i] = s.Msgs[i] - earlier.Msgs[i]
		d.Floats[i] = s.Floats[i] - earlier.Floats[i]
	}
	return d
}
