package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/sparse"
	"repro/internal/xerr"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func testRecord(i int) Record {
	return Record{
		Kind:  KindSubmit,
		Time:  time.Unix(1700000000+int64(i), 0).UTC(),
		JobID: fmt.Sprintf("job-%04d", i),
		Spec:  json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)),
	}
}

func appendN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	appendN(t, s, 25)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 25 {
		t.Fatalf("recovered %d records, want 25", len(recs))
	}
	for i, rec := range recs {
		if !reflect.DeepEqual(rec, testRecord(i)) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, testRecord(i))
		}
	}
	if st := s2.Stats(); st.TruncatedBytes != 0 {
		t.Fatalf("clean reopen reported %d truncated bytes", st.TruncatedBytes)
	}
}

// TestJournalTornTail cuts the journal at every possible byte boundary of
// the final record (header, body, checksum — all of it) and asserts
// recovery always yields exactly the records before the cut, reports the
// torn bytes, and leaves the journal appendable.
func TestJournalTornTail(t *testing.T) {
	const keep = 5
	base := t.TempDir()
	ref := mustOpen(t, filepath.Join(base, "ref"))
	appendN(t, ref, keep)
	prefixLen := ref.Stats().JournalBytes
	if err := ref.Append(testRecord(keep)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fullLen := ref.Stats().JournalBytes
	if err := ref.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full, err := os.ReadFile(filepath.Join(base, "ref", journalName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != fullLen {
		t.Fatalf("journal is %d bytes, stats say %d", len(full), fullLen)
	}

	for cut := prefixLen; cut < fullLen; cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		if got := len(s.Records()); got != keep {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, got, keep)
		}
		st := s.Stats()
		if st.TruncatedBytes != cut-prefixLen {
			t.Fatalf("cut at %d: truncated %d bytes, want %d", cut, st.TruncatedBytes, cut-prefixLen)
		}
		if st.JournalBytes != prefixLen {
			t.Fatalf("cut at %d: journal kept %d bytes, want %d", cut, st.JournalBytes, prefixLen)
		}
		// The recovered journal must accept appends and survive another open.
		if err := s.Append(testRecord(99)); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
		s2 := mustOpen(t, dir)
		if got := len(s2.Records()); got != keep+1 {
			t.Fatalf("cut at %d: second recovery got %d records, want %d", cut, got, keep+1)
		}
		s2.Close()
	}
}

// TestJournalCorruptByte flips single bytes at random offsets and asserts
// recovery never returns a record at or after the corruption and never
// errors — a corrupt journal degrades to a shorter one.
func TestJournalCorruptByte(t *testing.T) {
	base := t.TempDir()
	ref := mustOpen(t, filepath.Join(base, "ref"))
	appendN(t, ref, 20)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(base, "ref", journalName))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		off := rng.Intn(len(full))
		mut := append([]byte(nil), full...)
		mut[off] ^= 1 << uint(rng.Intn(8))

		dir := filepath.Join(base, fmt.Sprintf("trial-%d", trial))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		recs := s.Records()
		// Every recovered record must be one of the originals, in order,
		// and none may come from at or beyond the corrupted frame.
		for i, rec := range recs {
			if !reflect.DeepEqual(rec, testRecord(i)) {
				t.Fatalf("trial %d (byte %d): recovered record %d does not match original", trial, off, i)
			}
		}
		if st := s.Stats(); st.JournalBytes > int64(off) && st.TruncatedBytes == 0 && len(recs) != 20 {
			t.Fatalf("trial %d: inconsistent recovery: %+v", trial, st)
		}
		s.Close()
	}
}

func TestAppendAfterClose(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	err := s.Append(testRecord(0))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if !errors.Is(err, xerr.Unavailable) {
		t.Fatalf("ErrClosed not classified Unavailable: %v", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

func testCSR() *sparse.CSR {
	// 3x3 SPD-ish pattern; values chosen to exercise float64 bit fidelity.
	return &sparse.CSR{
		Rows:   3,
		Cols:   3,
		RowPtr: []int{0, 2, 4, 6},
		Col:    []int{0, 1, 0, 1, 1, 2},
		Val:    []float64{4, -1, -1, 4.000000000000001, -1e-300, 2.5},
	}
}

func blobHashFor(m *sparse.CSR) string {
	sum := sha256.Sum256(encodeCSR(m))
	return hex.EncodeToString(sum[:])
}

func TestBlobRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	m := testCSR()
	hash := blobHashFor(m)
	if err := s.PutCSR(hash, m); err != nil {
		t.Fatalf("PutCSR: %v", err)
	}
	got, err := s.GetCSR(hash)
	if err != nil {
		t.Fatalf("GetCSR: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	st := s.Stats()
	if st.Blobs != 1 || st.BlobBytes == 0 {
		t.Fatalf("stats after put: %+v", st)
	}

	// Idempotent put: same hash again is a no-op, counters unchanged.
	if err := s.PutCSR(hash, m); err != nil {
		t.Fatalf("second PutCSR: %v", err)
	}
	if st2 := s.Stats(); st2.Blobs != 1 || st2.BlobBytes != st.BlobBytes {
		t.Fatalf("idempotent put changed stats: %+v -> %+v", st, st2)
	}

	if err := s.DeleteCSR(hash); err != nil {
		t.Fatalf("DeleteCSR: %v", err)
	}
	if _, err := s.GetCSR(hash); !errors.Is(err, ErrBlobNotFound) {
		t.Fatalf("GetCSR after delete = %v, want ErrBlobNotFound", err)
	}
	if err := s.DeleteCSR(hash); err != nil {
		t.Fatalf("DeleteCSR of missing blob = %v, want nil", err)
	}
	if st := s.Stats(); st.Blobs != 0 || st.BlobBytes != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
}

// TestBlobCorruption flips one byte at every offset of a stored blob and
// asserts GetCSR rejects every mutation — header, address, checksum, and
// payload corruption must all surface as ErrBlobCorrupt, never as a
// silently different matrix.
func TestBlobCorruption(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	m := testCSR()
	hash := blobHashFor(m)
	if err := s.PutCSR(hash, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.blobDir(), hash)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off++ {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetCSR(hash); !errors.Is(err, ErrBlobCorrupt) {
			t.Fatalf("byte %d flipped: GetCSR = %v, want ErrBlobCorrupt", off, err)
		}
	}
	// Truncation is also corruption.
	if err := os.WriteFile(path, orig[:len(orig)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetCSR(hash); !errors.Is(err, ErrBlobCorrupt) {
		t.Fatalf("truncated blob: GetCSR = %v, want ErrBlobCorrupt", err)
	}
	// Restore and confirm the verifier accepts the pristine bytes again.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetCSR(hash); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
}

func TestBlobInvalidHash(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	for _, bad := range []string{"", "ABCDEF", "../escape", "deadbeef/../../x", "zz"} {
		if err := s.PutCSR(bad, testCSR()); !errors.Is(err, xerr.InvalidArgument) {
			t.Fatalf("PutCSR(%q) = %v, want InvalidArgument", bad, err)
		}
		if _, err := s.GetCSR(bad); !errors.Is(err, xerr.InvalidArgument) {
			t.Fatalf("GetCSR(%q) = %v, want InvalidArgument", bad, err)
		}
	}
}

func TestOpenCleansTempBlobs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Close()
	// Simulate a crash mid-PutCSR: a temp file that never got renamed.
	tmp := filepath.Join(dir, "blobs", tmpBlobPrefix+"leftover")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp blob survived reopen: stat err = %v", err)
	}
	if st := s2.Stats(); st.Blobs != 0 {
		t.Fatalf("temp blob counted: %+v", st)
	}
}

func TestOpenEmptyDirRejected(t *testing.T) {
	if _, err := Open(Options{}); !errors.Is(err, xerr.InvalidArgument) {
		t.Fatalf("Open with empty dir = %v, want InvalidArgument", err)
	}
}

func TestFsyncOptionCountsSyncs(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendN(t, s, 3)
	if st := s.Stats(); st.Syncs < 3 {
		t.Fatalf("fsync mode performed %d syncs for 3 appends", st.Syncs)
	}
}

// TestJournalFloatColumns: a record's float columns come back byte for byte,
// sit under the frame's checksum like the rest of the payload, and survive
// ReleaseRecords — after which Records reads the recovered prefix back from
// the file instead of holding it.
func TestJournalFloatColumns(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var want []Record
	for i := 0; i < 4; i++ {
		rec := testRecord(i)
		rec.Kind = KindSubmitFloats
		col := make([]byte, 8*1024)
		for k := range col {
			col[k] = byte(k*7 + i)
		}
		rec.Floats = [][]byte{col, col[:8*(i+1)]}
		want = append(want, rec)
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	if got := s2.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered records differ from the appended ones")
	}
	if err := s2.Append(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	s2.ReleaseRecords()
	if s2.loaded != nil {
		t.Fatal("ReleaseRecords left the recovered records pinned")
	}
	if got := s2.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after ReleaseRecords, Records returned %d records, want the %d recovered at Open", len(got), len(want))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// One flipped bit in the middle of the last float column: the frame
	// fails its checksum and recovery stops before it.
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames int64
	for _, rec := range append(want, testRecord(99)) {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		frames += frameHeaderLen + int64(len(payload))
	}
	if frames != int64(len(raw)) {
		t.Fatalf("journal is %d bytes, its frames add up to %d", len(raw), frames)
	}
	last, _ := json.Marshal(testRecord(99))
	raw[len(raw)-len(last)-frameHeaderLen-100] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir)
	defer s3.Close()
	if got := s3.Records(); !reflect.DeepEqual(got, want[:3]) {
		t.Fatalf("recovered %d records after corrupting the fourth's floats, want 3", len(got))
	}
}
