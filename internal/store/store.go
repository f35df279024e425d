// Package store is esrd's crash-safe persistence layer: a write-ahead job
// journal plus a content-hash-addressed matrix blob store, both under one
// data directory.
//
//	<dir>/journal.wal     append-only, length-prefixed, checksummed records
//	<dir>/blobs/<hash>    one verified binary blob per CSR matrix
//
// The journal records every job-lifecycle edge (submit, state transition,
// result, delete) and matrix registration; the engine replays it on startup
// so queued and running jobs resume and terminal records reload. A torn
// tail — a record cut short by a crash mid-write — is detected by the
// length/checksum framing and truncated on open, so the journal is always
// appendable after recovery. Blobs are written fsync-then-rename, so a
// crash never leaves a half-written blob under its final name, and every
// load re-verifies the content hash before handing bytes back.
//
// The store is engine-agnostic: record payloads are raw JSON and opaque
// float columns supplied by the caller, which keeps the dependency arrow
// pointing engine -> store.
package store

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/xerr"
)

// Sentinel store errors, classified per internal/xerr.
var (
	// ErrClosed reports an append or sync against a closed store.
	ErrClosed = xerr.New(xerr.Unavailable, "store: store is closed")
	// ErrBlobNotFound reports a blob lookup for a hash with no file.
	ErrBlobNotFound = xerr.New(xerr.NotFound, "store: no such matrix blob")
	// ErrBlobCorrupt reports a blob that failed hash or format verification.
	ErrBlobCorrupt = xerr.New(xerr.Internal, "store: matrix blob failed verification")
)

// Options configure Open.
type Options struct {
	// Dir is the data directory. Created (with a blobs/ subdirectory) if
	// missing.
	Dir string
	// Fsync, when true, fsyncs the journal after every appended record, so
	// accepted jobs survive power loss, not just process death. Blob writes
	// are always fsynced before rename regardless of this setting.
	Fsync bool
}

// Store is a single-process handle on a data directory. All methods are
// safe for concurrent use.
type Store struct {
	dir   string
	fsync bool

	mu        sync.Mutex
	f         *os.File // journal, positioned at end
	closed    bool
	loaded    []Record // records recovered at Open, until ReleaseRecords
	truncated int64    // torn-tail bytes dropped at Open

	recoveredBytes int64 // journal size after recovery: where loaded ends

	journalBytes int64
	records      int64 // loaded + appended since Open
	syncs        int64
	blobs        int64
	blobBytes    int64

	syncObs func(time.Duration)
}

// Stats is a point-in-time snapshot of the store's disk footprint.
type Stats struct {
	// JournalRecords counts records recovered at Open plus records appended
	// since; monotonic for the life of the handle.
	JournalRecords int64
	// JournalBytes is the current journal file size.
	JournalBytes int64
	// TruncatedBytes is the size of the torn tail dropped at Open (0 after
	// a clean shutdown).
	TruncatedBytes int64
	// Blobs and BlobBytes describe the matrix blob directory.
	Blobs     int64
	BlobBytes int64
	// Syncs counts journal fsyncs performed.
	Syncs int64
}

// Open mounts (creating if necessary) the data directory, recovers the
// journal — truncating any torn tail so the file is appendable — and scans
// the blob directory. The recovered records are available via Records.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, xerr.New(xerr.InvalidArgument, "store: empty data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, xerr.Wrap(xerr.Internal, err)
	}
	blobDir := filepath.Join(opts.Dir, "blobs")
	if err := os.MkdirAll(blobDir, 0o755); err != nil {
		return nil, xerr.Wrap(xerr.Internal, err)
	}
	s := &Store{dir: opts.Dir, fsync: opts.Fsync}
	if err := s.openJournal(); err != nil {
		return nil, err
	}
	if err := s.scanBlobs(); err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// Dir returns the data directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Records returns the journal records recovered at Open, in append order.
// The caller must treat the slice as read-only. After ReleaseRecords the
// store no longer holds them and every call reads them back from the file.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loaded != nil || s.recoveredBytes == 0 {
		return s.loaded
	}
	f, err := os.Open(s.journalPath())
	if err != nil {
		return nil
	}
	defer f.Close()
	recs, _ := scanJournal(io.LimitReader(f, s.recoveredBytes))
	return recs
}

// ReleaseRecords drops the store's copy of the recovered records. The
// engine calls it once replay has applied them: they are read once, and a
// daemon restarted on a large journal would otherwise carry every payload
// it ever journaled for as long as it runs.
func (s *Store) ReleaseRecords() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loaded = nil
}

// SetSyncObserver installs a callback invoked with the duration of every
// journal fsync (for latency histograms). Must be set before concurrent
// appends begin.
func (s *Store) SetSyncObserver(fn func(time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncObs = fn
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		JournalRecords: s.records,
		JournalBytes:   s.journalBytes,
		TruncatedBytes: s.truncated,
		Blobs:          s.blobs,
		BlobBytes:      s.blobBytes,
		Syncs:          s.syncs,
	}
}

// Sync flushes the journal to stable storage regardless of the Fsync
// option. Called by the engine on drain/close so a clean shutdown always
// leaves a durable journal.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	start := time.Now()
	err := s.f.Sync()
	s.syncs++
	if s.syncObs != nil {
		s.syncObs(time.Since(start))
	}
	if err != nil {
		return xerr.Wrap(xerr.Internal, err)
	}
	return nil
}

// Close flushes and closes the journal. Further appends fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.f.Sync()
	closeErr := s.f.Close()
	if syncErr != nil {
		return xerr.Wrap(xerr.Internal, syncErr)
	}
	if closeErr != nil {
		return xerr.Wrap(xerr.Internal, closeErr)
	}
	return nil
}

// scanBlobs sizes the blob directory and removes temp files left by a
// crash mid-PutCSR (they were never renamed, so they hold no committed
// data).
func (s *Store) scanBlobs() error {
	dir := s.blobDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return xerr.Wrap(xerr.Internal, err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(ent.Name(), tmpBlobPrefix) {
			os.Remove(filepath.Join(dir, ent.Name()))
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		s.blobs++
		s.blobBytes += info.Size()
	}
	return nil
}
