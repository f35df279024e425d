// Package checkpoint implements the checkpoint/restart (C/R) baseline the
// paper positions ESR against (Sec. 1.2, Sec. 2.2): every Interval
// iterations each rank saves its dynamic solver state (x, r, z, p and the
// three replicated scalars, per column still running) to reliable storage;
// after a node failure, all ranks roll back to the last checkpoint and redo
// the lost iterations.
//
// The scheme plugs into the shared resilient-PCG driver as a core.Strategy
// (NewStrategy): the periodic coordinated save is the strategy's
// steady-state overhead work and the rollback is its recovery episode, so
// C/R runs on exactly the solve path as ESR and is selectable through the
// whole stack (engine.Config.Strategy, esrd -strategy).
//
// The reliable store is simulated by memory outside the rank's own (a
// snapshot table shared through the Strategy); the data volume of every save
// is accounted under cluster.CatCheckpoint, so the steady-state overhead can
// be compared with ESR's redundancy traffic, and of every restore under
// cluster.CatRecovery, beside ESR's reconstruction traffic.
package checkpoint

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/vec"
)

// DefaultInterval is the checkpoint period used when none is configured.
const DefaultInterval = 10

// Store is the simulated reliable checkpoint storage shared by all ranks.
// It lives outside node memory, so it survives any number of node failures
// (the paper's C/R model).
type Store struct {
	mu       sync.Mutex
	counters *cluster.Counters
	iter     int
	snaps    map[int]snapshot
	pending  map[int]snapshot
	pendIter int
	saved    int
}

// snapshot is one rank's part of a checkpoint, one entry per column; a
// column already frozen at the save keeps the zero entry (its solo solve had
// ended, so it is neither saved nor restored).
type snapshot []column

type column struct {
	x, r, z, p []float64
	scalars    [3]float64 // r0, rz, beta
}

// floats is the snapshot's volume on the wire to reliable storage.
func (s snapshot) floats() int {
	vol := 0
	for _, col := range s {
		if col.x != nil {
			vol += len(col.x) + len(col.r) + len(col.z) + len(col.p) + len(col.scalars)
		}
	}
	return vol
}

// NewStore creates an empty reliable store accounting its traffic on the
// given counters (may be nil).
func NewStore(counters *cluster.Counters) *Store {
	return &Store{
		counters: counters,
		iter:     -1,
		pendIter: -1,
		snaps:    map[int]snapshot{},
		pending:  map[int]snapshot{},
	}
}

// save deposits one rank's state for the checkpoint at iteration iter. The
// checkpoint becomes restorable once every rank of the cluster has
// deposited (two-phase semantics: a failure mid-checkpoint rolls back to
// the previous complete one).
func (s *Store) save(rank, ranks, iter int, snap snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if iter != s.pendIter {
		s.pending = map[int]snapshot{}
		s.pendIter = iter
	}
	s.pending[rank] = snap
	if s.counters != nil {
		s.counters.RecordExternal(cluster.CatCheckpoint, 1, snap.floats())
	}
	if len(s.pending) == ranks {
		s.snaps = s.pending
		s.iter = s.pendIter
		s.pending = map[int]snapshot{}
		s.pendIter = -1
		s.saved++
	}
}

// load returns, and bills, the rank's part of the last complete checkpoint
// reduced to the given columns — those still running: a column frozen since
// the save is not restored.
func (s *Store) load(rank int, cols []int) (int, snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	saved, ok := s.snaps[rank]
	if !ok {
		return s.iter, nil, false
	}
	snap := make(snapshot, len(saved))
	for _, c := range cols {
		snap[c] = saved[c]
	}
	if s.counters != nil {
		// A rollback's restores are recovery cost, not steady-state
		// overhead.
		s.counters.RecordExternal(cluster.CatRecovery, 1, snap.floats())
	}
	return s.iter, snap, true
}

// Checkpoints returns how many complete checkpoints were taken.
func (s *Store) Checkpoints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saved
}

// Strategy is the C/R recovery strategy for core.ResilientPCG: a periodic
// coordinated checkpoint as the steady-state overhead hook and a
// rollback-and-redo as the recovery episode. One Strategy (with its Store)
// is shared by every rank of a solve.
type Strategy struct {
	store    *Store
	interval int
}

// NewStrategy builds the checkpoint/restart strategy over the given reliable
// store, saving every interval iterations (<= 0 selects DefaultInterval).
func NewStrategy(store *Store, interval int) *Strategy {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Strategy{store: store, interval: interval}
}

// Name implements core.Strategy.
func (s *Strategy) Name() string { return core.StrategyCheckpoint }

// Init implements core.Strategy.
func (s *Strategy) Init(*core.SolverState) error {
	if s.store == nil {
		return fmt.Errorf("checkpoint: nil store")
	}
	return nil
}

// Overhead implements core.Strategy: the periodic coordinated checkpoint,
// including iteration 0 so a rollback target always exists.
func (s *Strategy) Overhead(st *core.SolverState, j int) error {
	if j%s.interval != 0 {
		return nil
	}
	snap := make(snapshot, len(st.X))
	for _, c := range st.Running() {
		snap[c] = column{
			x: vec.Clone(st.X[c].Local), r: vec.Clone(st.R[c].Local),
			z: vec.Clone(st.Z[c].Local), p: vec.Clone(st.P[c].Local),
			scalars: [3]float64{st.R0[c], st.RZ[c], st.Beta[c]},
		}
	}
	s.store.save(st.E.Pos, st.E.Size(), j, snap)
	// Coordinated checkpointing: no rank proceeds until the checkpoint is
	// complete, so every rank sees the same rollback target (this
	// synchronisation is part of C/R's cost).
	return st.E.Grp.Barrier()
}

// Recover implements core.Strategy: victims lose their memory and the whole
// cluster rolls back to the last complete checkpoint; the driver then redoes
// the lost iterations. Overlapping failures at the recovery-phase grid force
// the rollback to be redone with the enlarged failed set — the cascading
// analogue of the paper's Sec. 4.1 restart rule.
func (s *Strategy) Recover(st *core.SolverState, j int, victims []int) (int, core.Reconstruction, error) {
	startT := time.Now()
	rec := core.Reconstruction{Iteration: j}
	ef := core.NewEpisodeFailures(st.Sched, j, st.E.Pos, st.E.Size(), st.Wipe, victims)

	resume := 0
	phase := 1
rollback:
	rec.FailedRanks = ef.Ranks()
	iter, snap, ok := s.store.load(st.E.Pos, st.Running())
	if !ok {
		return 0, rec, fmt.Errorf("checkpoint: no checkpoint to roll back to")
	}
	for c, col := range snap {
		if col.x == nil {
			continue
		}
		copy(st.X[c].Local, col.x)
		copy(st.R[c].Local, col.r)
		copy(st.Z[c].Local, col.z)
		copy(st.P[c].Local, col.p)
		st.R0[c], st.RZ[c], st.Beta[c] = col.scalars[0], col.scalars[1], col.scalars[2]
	}
	resume = iter
	if err := st.E.Grp.Barrier(); err != nil {
		return 0, rec, err
	}
	// Overlapping failures strike while the rollback is in progress: a
	// fresh victim has just lost the restored state, so the rollback is
	// redone (non-destructive: the store keeps the checkpoint).
	for ; phase <= core.NumRecoveryPhases; phase++ {
		if ef.AtPhase(phase) {
			rec.Restarts++
			goto rollback
		}
	}
	rec.Duration = time.Since(startT)
	return resume, rec, nil
}
