package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/sparse"
	"repro/internal/xerr"
)

// Errors of the matrix store.
var (
	// ErrMatrixNotFound reports an unknown matrix id.
	ErrMatrixNotFound = xerr.New(xerr.NotFound, "engine: no such matrix")
	// ErrMatrixStoreFull reports that the store is at capacity.
	ErrMatrixStoreFull = xerr.New(xerr.ResourceExhausted, "engine: matrix store is full")
)

// MatrixRecord describes one uploaded (registered) system matrix. Clients
// register a matrix once and then submit any number of jobs referencing it
// by ID, so the daemon parses/generates it once and the prepared-solver
// cache can reuse setup across those jobs.
type MatrixRecord struct {
	// ID is the store handle ("mat-000001") referenced by JobSpec.MatrixID.
	ID string `json:"id"`
	// Hash is the canonical content hash; uploads of identical content
	// deduplicate onto the first record.
	Hash string `json:"hash"`
	// Generator is the generator name for generated matrices ("" for
	// MatrixMarket uploads).
	Generator string `json:"generator,omitempty"`
	// Rows, Cols and NNZ are the materialized dimensions.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	NNZ  int `json:"nnz"`
	// CreatedAt is the registration time; Jobs counts submissions that
	// referenced the matrix.
	CreatedAt time.Time `json:"created_at"`
	Jobs      int       `json:"jobs"`
}

// storedMatrix pins the materialized CSR alongside its record.
type storedMatrix struct {
	rec MatrixRecord
	a   *sparse.CSR
}

// matrixStore is the engine's in-memory registry of uploaded matrices.
type matrixStore struct {
	mu     sync.Mutex
	max    int
	seq    int
	byID   map[string]*storedMatrix
	byHash map[string]*storedMatrix
}

func newMatrixStore(max int) *matrixStore {
	return &matrixStore{max: max, byID: map[string]*storedMatrix{}, byHash: map[string]*storedMatrix{}}
}

// put validates, materializes and registers a matrix spec. Content identical
// to an existing record (same canonical hash) deduplicates: the existing
// record is returned with created = false and no new slot is used. For new
// registrations the pinned CSR is returned alongside the record so the
// caller can persist it.
func (s *matrixStore) put(spec MatrixSpec) (MatrixRecord, *sparse.CSR, bool, error) {
	if spec.Generator == "" && len(spec.MatrixMarket) == 0 {
		return MatrixRecord{}, nil, false, xerr.New(xerr.InvalidArgument, "engine: matrix spec needs a generator or matrix_market")
	}
	hash := spec.contentHash()
	s.mu.Lock()
	if sm, ok := s.byHash[hash]; ok {
		rec := sm.rec
		s.mu.Unlock()
		return rec, sm.a, false, nil
	}
	if s.max > 0 && len(s.byID) >= s.max {
		s.mu.Unlock()
		return MatrixRecord{}, nil, false, xerr.Newf(xerr.ResourceExhausted, "%w (%d matrices); DELETE unused ones first", ErrMatrixStoreFull, s.max)
	}
	s.mu.Unlock()

	// Build outside the lock: generation/parsing can take a while and must
	// not stall lookups. A racing identical upload is resolved below.
	a, err := spec.Build()
	if err != nil {
		return MatrixRecord{}, nil, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if sm, ok := s.byHash[hash]; ok {
		return sm.rec, sm.a, false, nil
	}
	if s.max > 0 && len(s.byID) >= s.max {
		return MatrixRecord{}, nil, false, xerr.Newf(xerr.ResourceExhausted, "%w (%d matrices); DELETE unused ones first", ErrMatrixStoreFull, s.max)
	}
	s.seq++
	sm := &storedMatrix{
		rec: MatrixRecord{
			ID: fmt.Sprintf("mat-%06d", s.seq), Hash: hash, Generator: spec.Generator,
			Rows: a.Rows, Cols: a.Cols, NNZ: a.NNZ(), CreatedAt: time.Now(),
		},
		a: a,
	}
	s.byID[sm.rec.ID] = sm
	s.byHash[hash] = sm
	return sm.rec, a, true, nil
}

// restore reinstates a replayed registration under its original id, hash and
// counters. Replay-only: it trusts the journaled record and does not bump
// the sequence (setSeq restores that separately).
func (s *matrixStore) restore(rec MatrixRecord, a *sparse.CSR) {
	s.mu.Lock()
	sm := &storedMatrix{rec: rec, a: a}
	s.byID[rec.ID] = sm
	s.byHash[rec.Hash] = sm
	s.mu.Unlock()
}

// setSeq raises the id sequence to at least n, so post-replay registrations
// never reuse an id the journal has already seen (including deleted ones).
func (s *matrixStore) setSeq(n int) {
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// get returns the record for id.
func (s *matrixStore) get(id string) (MatrixRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.byID[id]
	if !ok {
		return MatrixRecord{}, fmt.Errorf("%w: %q", ErrMatrixNotFound, id)
	}
	return sm.rec, nil
}

// resolve returns the pinned CSR and record for id. The job counter is NOT
// bumped here: submission can still fail (closed engine, full queue);
// noteJob records the reference once the job is accepted.
func (s *matrixStore) resolve(id string) (*sparse.CSR, MatrixRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.byID[id]
	if !ok {
		return nil, MatrixRecord{}, fmt.Errorf("%w: %q", ErrMatrixNotFound, id)
	}
	return sm.a, sm.rec, nil
}

// noteJob counts one accepted job against the record (no-op if the matrix
// was deleted in between).
func (s *matrixStore) noteJob(id string) {
	s.mu.Lock()
	if sm, ok := s.byID[id]; ok {
		sm.rec.Jobs++
	}
	s.mu.Unlock()
}

// delete removes the record, returning it so the caller can release any
// persistent state filed under its hash. Jobs already submitted against it
// keep their pinned CSR and finish normally.
func (s *matrixStore) delete(id string) (MatrixRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sm, ok := s.byID[id]
	if !ok {
		return MatrixRecord{}, fmt.Errorf("%w: %q", ErrMatrixNotFound, id)
	}
	delete(s.byID, id)
	delete(s.byHash, sm.rec.Hash)
	return sm.rec, nil
}

// count returns the number of registered matrices.
func (s *matrixStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// list returns all records, oldest first.
func (s *matrixStore) list() []MatrixRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]MatrixRecord, 0, len(s.byID))
	for _, sm := range s.byID {
		out = append(out, sm.rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// contentHash is the canonical content hash of a matrix spec: the SHA-256 of
// the MatrixMarket bytes for uploads, or of the generator name plus its
// parameters (sorted by name) for generated matrices. It keys both the
// dedup in the matrix store and, combined with the prep-scoped config fields,
// the prepared-solver cache.
func (ms MatrixSpec) contentHash() string {
	h := sha256.New()
	if len(ms.MatrixMarket) > 0 {
		io.WriteString(h, "mm|")
		h.Write(ms.MatrixMarket)
	} else {
		io.WriteString(h, "gen|"+ms.Generator)
		keys := make([]string, 0, len(ms.Params))
		for k := range ms.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "|%s=%g", k, ms.Params[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// prepKey derives the prepared-solver cache key: the matrix content plus
// the configuration's prep identity. Nothing else contributes — run policy
// and batch width shape no prepared state — so jobs differing only in
// fabric, strategy, intervals, detector, method, tolerances, schedule or
// blocking share one session.
func prepKey(matrixHash string, cfg Config) string {
	return matrixHash + cfg.PrepIdentity()
}
