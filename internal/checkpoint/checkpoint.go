// Package checkpoint implements the checkpoint/restart (C/R) baseline the
// paper positions ESR against (Sec. 1.2, Sec. 2.2): every Interval
// iterations each rank saves its dynamic solver state (x, r, z, p and the
// replicated scalars) to reliable storage; after a node failure, all ranks
// roll back to the last checkpoint and redo the lost iterations.
//
// The scheme plugs into the shared resilient-PCG driver as a core.Strategy
// (NewStrategy): the periodic coordinated save is the strategy's
// steady-state overhead work and the rollback is its recovery episode, so
// C/R runs on exactly the solve path as ESR and is selectable through the
// whole stack (engine.Config.Strategy, esr.WithStrategy, esrd -strategy).
//
// The reliable store is simulated by memory outside the rank's own (a
// snapshot table shared through the Strategy); the data volume of every save
// and restore is accounted under cluster.CatCheckpoint so the steady-state
// overhead can be compared with ESR's redundancy traffic.
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
	loaded   int64
}

type snapshot struct {
	x, r, z, p []float64
	scalars    [4]float64 // r0, rz, beta, spare
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
		vol := len(snap.x) + len(snap.r) + len(snap.z) + len(snap.p) + len(snap.scalars)
		s.counters.RecordExternal(cluster.CatCheckpoint, 1, vol)
	}
	if len(s.pending) == ranks {
		s.snaps = s.pending
		s.iter = s.pendIter
		s.pending = map[int]snapshot{}
		s.pendIter = -1
		s.saved++
	}
}

// load returns the rank's part of the last complete checkpoint.
func (s *Store) load(rank int) (int, snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.snaps[rank]
	if ok {
		vol := len(snap.x) + len(snap.r) + len(snap.z) + len(snap.p) + len(snap.scalars)
		s.loaded += int64(vol)
		if s.counters != nil {
			s.counters.RecordExternal(cluster.CatCheckpoint, 1, vol)
		}
	}
	return s.iter, snap, ok
}

// LoadedFloats returns the float volume restored from the store so far (the
// rollback half of the CatCheckpoint traffic, for recovery-cost accounting).
func (s *Store) LoadedFloats() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loaded
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
	s.store.save(st.E.Pos, st.E.Size(), j, snapshot{
		x: vec.Clone(st.X[0].Local), r: vec.Clone(st.R[0].Local),
		z: vec.Clone(st.Z[0].Local), p: vec.Clone(st.P[0].Local),
		scalars: [4]float64{st.R0[0], st.RZ[0], st.Beta[0], 0},
	})
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
	ef := core.NewEpisodeFailures(st.Sched, j, st.E.Pos, st.Wipe, victims)

	resume := 0
	phase := 1
rollback:
	rec.FailedRanks = ef.Ranks()
	iter, snap, ok := s.store.load(st.E.Pos)
	if !ok {
		return 0, rec, fmt.Errorf("checkpoint: no checkpoint to roll back to")
	}
	copy(st.X[0].Local, snap.x)
	copy(st.R[0].Local, snap.r)
	copy(st.Z[0].Local, snap.z)
	copy(st.P[0].Local, snap.p)
	st.R0[0] = snap.scalars[0]
	st.RZ[0] = snap.scalars[1]
	st.Beta[0] = snap.scalars[2]
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
