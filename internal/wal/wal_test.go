package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/graph"
)

func testHeader() Header {
	return Header{
		Session: "sess-1",
		Base:    exp.GraphSpec{Family: "gnm", N: 32, M: 64, Seed: 7},
	}
}

func testRecord(seq int64) Record {
	var rec Record
	rec.Seq = seq
	rec.Op = exp.Mutation{Op: exp.OpInsert, U: int(seq), V: int(seq) + 1}
	if seq%3 == 0 {
		rec.Op.Op = exp.OpDelete
	}
	for i := range rec.Fingerprint {
		rec.Fingerprint[i] = byte(seq) + byte(i)
	}
	return rec
}

// writeLog creates a log with n records and returns its path.
func writeLog(t *testing.T, n int, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.wal")
	l, err := Create(path, testHeader(), opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for seq := int64(1); seq <= int64(n); seq++ {
		if err := l.Append(testRecord(seq)); err != nil {
			t.Fatalf("Append seq %d: %v", seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := writeLog(t, 10, Options{})
	l, hdr, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if hdr != testHeader() {
		t.Fatalf("header = %+v, want %+v", hdr, testHeader())
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		if want := testRecord(int64(i + 1)); rec != want {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
	if l.LastSeq() != 10 {
		t.Fatalf("LastSeq = %d, want 10", l.LastSeq())
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := writeLog(t, 1, Options{})
	if _, err := Create(path, testHeader(), Options{}); err == nil {
		t.Fatal("Create over an existing log succeeded; must refuse")
	}
}

func TestAppendContinuesAfterOpen(t *testing.T) {
	path := writeLog(t, 5, Options{})
	l, _, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	if err := l.Append(testRecord(6)); err != nil {
		t.Fatalf("Append after Open: %v", err)
	}
	if err := l.Append(testRecord(8)); err == nil {
		t.Fatal("Append with a seq gap succeeded; must refuse")
	}
	l.Close()

	_, _, recs, err = Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 6 || recs[5] != testRecord(6) {
		t.Fatalf("reopen saw %d records (last %+v), want 6 ending in seq 6", len(recs), recs[len(recs)-1])
	}
}

// TestTornTailTruncated cuts a valid log at every possible byte length and
// asserts each prefix opens cleanly as some verified record prefix — the
// partial append is truncated, never misread, and never an error.
func TestTornTailTruncated(t *testing.T) {
	path := writeLog(t, 6, Options{})
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The header record must survive or the session is gone; start cutting
	// after it.
	_, _, headerEnd, _ := Scan(full[:headerLen(t, full)])
	for cut := int(headerEnd); cut <= len(full); cut++ {
		p := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, hdr, recs, err := Open(p, Options{})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if hdr != testHeader() {
			t.Fatalf("cut=%d: header = %+v", cut, hdr)
		}
		for i, rec := range recs {
			if want := testRecord(int64(i + 1)); rec != want {
				t.Fatalf("cut=%d: record %d = %+v, want %+v", cut, i, rec, want)
			}
		}
		// The truncated file must reopen to exactly the same state.
		if err := l.Append(testRecord(int64(len(recs)) + 1)); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		l.Close()
		_, _, recs2, err := Open(p, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen after truncation: %v", cut, err)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("cut=%d: reopen got %d records, want %d", cut, len(recs2), len(recs)+1)
		}
	}
}

// headerLen returns the byte length of the header frame of a valid log.
func headerLen(t *testing.T, data []byte) int {
	t.Helper()
	payload, next, st := readFrame(data, 0)
	if st != frameOK || payload == nil {
		t.Fatal("valid log does not start with a readable header frame")
	}
	return next
}

// TestMidLogCorruptionRejected flips one byte in a non-final record and
// asserts Open refuses with ErrCorrupt: acknowledged history is damaged, not
// torn, and must not be silently dropped.
func TestMidLogCorruptionRejected(t *testing.T) {
	path := writeLog(t, 6, Options{})
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hEnd := headerLen(t, full)
	_, rEnd, st := readFrame(full, hEnd)
	if st != frameOK {
		t.Fatal("cannot locate first mutation record")
	}
	// Flip a byte inside the first mutation record's payload.
	corrupt := bytes.Clone(full)
	corrupt[hEnd+2] ^= 0xff
	_ = rEnd
	p := filepath.Join(t.TempDir(), "corrupt.wal")
	if err := os.WriteFile(p, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(p, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestFinalRecordChecksumIsTorn flips a byte in the last record: with
// nothing after it, a bad checksum is indistinguishable from an interrupted
// append and must truncate, not error.
func TestFinalRecordChecksumIsTorn(t *testing.T) {
	path := writeLog(t, 4, Options{})
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(full)
	corrupt[len(corrupt)-5] ^= 0xff // inside the final record
	p := filepath.Join(t.TempDir(), "tornsum.wal")
	if err := os.WriteFile(p, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, recs, err := Open(p, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (final record truncated)", len(recs))
	}
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(len(full)) {
		t.Fatalf("file not truncated: %d bytes, had %d", fi.Size(), len(full))
	}
}

func TestSeqDiscontinuityRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gap.wal")
	var buf []byte
	buf = append(buf, frameRecord(encodeHeader(testHeader()))...)
	buf = append(buf, frameRecord(encodeMutation(testRecord(1)))...)
	buf = append(buf, frameRecord(encodeMutation(testRecord(3)))...) // gap
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of seq-gap log: err = %v, want ErrCorrupt", err)
	}
}

func TestMissingHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdrless.wal")
	// A log whose first record is a mutation has no session to recover.
	buf := frameRecord(encodeMutation(testRecord(1)))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of headerless log: err = %v, want ErrCorrupt", err)
	}
}

func TestSyncOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wal")
	l, err := Create(path, testHeader(), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatalf("Append with Sync: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestOversizedLengthIsTorn(t *testing.T) {
	path := writeLog(t, 2, Options{})
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append a frame whose length prefix claims more than maxRecord: nothing
	// after it can be framed, so it reads as a torn tail.
	huge := append(bytes.Clone(full), 0xff, 0xff, 0xff, 0xff, 0x7f)
	p := filepath.Join(t.TempDir(), "huge.wal")
	if err := os.WriteFile(p, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, recs, err := Open(p, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	var fp graph.Fingerprint
	for i := range fp {
		fp[i] = byte(255 - i)
	}
	rec := Record{Seq: 1, Op: exp.Mutation{Op: exp.OpInsert, U: 0, V: 1}, Fingerprint: fp}
	got, err := decodeMutation(encodeMutation(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("round trip = %+v, want %+v", got, rec)
	}
}

// TestReadHeader reads just the header frame of healthy and damaged logs:
// a header-only log and a full log yield the header; a torn or corrupt
// header is ErrCorrupt — even when the records after it are intact — and a
// missing file is the open error.
func TestReadHeader(t *testing.T) {
	full, err := os.ReadFile(writeLog(t, 5, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	hEnd := headerLen(t, full)
	corrupt := bytes.Clone(full)
	corrupt[hEnd/2] ^= 0x20 // inside the header payload, records follow
	corruptOnly := bytes.Clone(full[:hEnd])
	corruptOnly[hEnd/2] ^= 0x20 // the header is the final frame
	cases := []struct {
		name string
		data []byte
		ok   bool
	}{
		{"full log", full, true},
		{"header only", full[:hEnd], true},
		{"header plus torn record", full[:hEnd+3], true},
		{"empty", nil, false},
		{"torn length prefix", []byte{0x80}, false},
		{"torn header", full[:hEnd-1], false},
		{"corrupt header", corrupt, false},
		{"corrupt header-only log", corruptOnly, false},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 0}, false},
		{"mutation first", frameRecord(encodeMutation(testRecord(1))), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "h.wal")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			hdr, err := ReadHeader(p)
			if !tc.ok {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadHeader: err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadHeader: %v", err)
			}
			if hdr != testHeader() {
				t.Fatalf("header = %+v, want %+v", hdr, testHeader())
			}
		})
	}
	if _, err := ReadHeader(filepath.Join(t.TempDir(), "absent.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadHeader of a missing log: err = %v, want ErrNotExist", err)
	}
}
