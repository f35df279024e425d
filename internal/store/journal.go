package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/xerr"
)

// Kind discriminates journal records.
type Kind string

const (
	// KindSubmit records an accepted job: JobID, Spec (engine JobSpec
	// JSON), Time = enqueue time.
	KindSubmit Kind = "submit"
	// KindState records a job state transition: JobID, State, Error.
	KindState Kind = "state"
	// KindResult records a finished job's solution: JobID, Result
	// (engine Solution JSON). Written just before the terminal state
	// record, so a crash between the two replays the job as still running.
	KindResult Kind = "result"
	// KindSubmitFloats and KindResultFloats are KindSubmit / KindResult
	// records whose bulk float vectors travel in Floats instead of inline
	// in the JSON payload. They have their own kind strings so that a binary
	// from before Floats existed skips them (an unknown kind) instead of
	// reading a spec without its right-hand side.
	KindSubmitFloats Kind = "submit_floats"
	KindResultFloats Kind = "result_floats"
	// KindDelete records a job removal (explicit delete or TTL/MaxJobs
	// eviction): JobID.
	KindDelete Kind = "delete"
	// KindPutMatrix records a matrix registration: MatrixID, Matrix
	// (engine MatrixRecord JSON); the CSR payload lives in the blob store
	// under the record's content hash.
	KindPutMatrix Kind = "put_matrix"
	// KindDeleteMatrix records a matrix removal: MatrixID.
	KindDeleteMatrix Kind = "del_matrix"
)

// Record is one journal entry. Payload fields (Spec, Result, Matrix) are
// raw JSON so the store stays engine-agnostic; unused fields are omitted
// from the encoded form.
//
// Floats carries the record's bulk numeric payload as columns of
// little-endian float64 bytes, which encoding/json writes as base64: 10.7
// bytes a float whatever its value and a copy to read back, where decimal
// text costs ~19 bytes and a strconv round trip. What the columns mean is
// the caller's business (the engine lifts a job's right-hand sides and
// solution vectors out of Spec / Result into them).
type Record struct {
	Kind Kind      `json:"kind"`
	Time time.Time `json:"time"`

	JobID string          `json:"job_id,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	State string          `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
	// ErrorCode is the class code of Error; absent in older journals.
	ErrorCode string `json:"error_code,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`

	MatrixID string          `json:"matrix_id,omitempty"`
	Matrix   json.RawMessage `json:"matrix,omitempty"`

	Floats [][]byte `json:"floats,omitempty"`
}

// Journal framing: each record is [len uint32 LE][crc32c uint32 LE][JSON
// payload]. The CRC covers the payload only; a record whose header, body,
// or checksum is incomplete or wrong marks the recovery stopping point.
const (
	journalName    = "journal.wal"
	frameHeaderLen = 8
	maxRecordBytes = 1 << 30 // sanity bound on the declared length
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }
func (s *Store) blobDir() string     { return filepath.Join(s.dir, "blobs") }

// openJournal opens (creating if needed) the journal, decodes the longest
// clean prefix of records into s.loaded, truncates anything after it, and
// leaves the file positioned for appends.
func (s *Store) openJournal() error {
	f, err := os.OpenFile(s.journalPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return xerr.Wrap(xerr.Internal, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return xerr.Wrap(xerr.Internal, err)
	}
	recs, good := scanJournal(f)
	if good < info.Size() {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return xerr.Wrap(xerr.Internal, err)
		}
		s.truncated = info.Size() - good
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return xerr.Wrap(xerr.Internal, err)
	}
	s.f = f
	s.loaded = recs
	s.records = int64(len(recs))
	s.journalBytes = good
	s.recoveredBytes = good
	return nil
}

// scanJournal reads records from r, a journal from its first byte, stopping
// at the first incomplete or corrupt frame. It returns the decoded records
// and the byte offset of the end of the last good record. Recovery cannot
// distinguish mid-file corruption from a torn tail, so — like any WAL —
// everything after the first bad frame is discarded.
func scanJournal(r io.Reader) ([]Record, int64) {
	br := bufio.NewReaderSize(r, 1<<16)
	var (
		recs []Record
		good int64
		hdr  [frameHeaderLen]byte
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return recs, good // EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordBytes {
			return recs, good
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return recs, good // torn body
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, good
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, good
		}
		recs = append(recs, rec)
		good += frameHeaderLen + int64(n)
	}
}

// framePool recycles Append's frame buffers: a record with float columns is
// tens of kilobytes, built and written once per job edge.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledFrame bounds the buffers framePool keeps, so one huge record does
// not pin its buffer for the life of the process.
const maxPooledFrame = 4 << 20

// Append encodes rec, frames it, and writes it to the journal in a single
// write call (so a crash can only tear the tail, never interleave
// records). With Options.Fsync it also flushes before returning.
func (s *Store) Append(rec Record) error {
	frame := framePool.Get().(*bytes.Buffer)
	defer func() {
		if frame.Cap() <= maxPooledFrame {
			frame.Reset()
			framePool.Put(frame)
		}
	}()
	var hdr [frameHeaderLen]byte
	frame.Write(hdr[:])
	if err := json.NewEncoder(frame).Encode(rec); err != nil {
		return xerr.Wrap(xerr.Internal, err)
	}
	frame.Truncate(frame.Len() - 1) // the encoder's newline
	buf := frame.Bytes()
	payload := buf[frameHeaderLen:]
	if len(payload) > maxRecordBytes {
		return xerr.Newf(xerr.InvalidArgument, "store: record too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.f.Write(buf); err != nil {
		return xerr.Wrap(xerr.Internal, err)
	}
	s.records++
	s.journalBytes += int64(len(buf))
	if s.fsync {
		return s.syncLocked()
	}
	return nil
}
