package wal

import (
	"bytes"
	"testing"

	"repro/internal/exp"
)

// FuzzWALReplay pins the recovery contract against arbitrary log damage:
// whatever bytes Scan is handed — a valid log, a truncation, bit flips,
// garbage — it must never panic, and every record it returns must be one it
// could only have read through a passing checksum with contiguous sequence
// numbers. Damage resolves exactly one of two ways: a clean truncation point
// (good <= len(data), and rescanning data[:good] reproduces the same records
// with nothing further to drop) or ErrCorrupt. Whenever Scan accepts the
// bytes, the header-only read agrees with it.
func FuzzWALReplay(f *testing.F) {
	// Seed with a healthy log and a few canonical damage shapes.
	valid := validLog(8)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])         // torn tail
	f.Add(valid[:headerOnlyLen(valid)]) // header only
	f.Add([]byte{})                     // empty
	f.Add([]byte{0xff, 0xff, 0xff})     // garbage
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped) // mid-log bit flip

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, good, err := Scan(data)
		if err != nil {
			return // ErrCorrupt (or wrapped): a legal outcome, nothing replayed
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("truncation point %d outside [0, %d]", good, len(data))
		}
		if h, err := readHeader(bytes.NewReader(data)); err != nil || h != hdr {
			t.Fatalf("readHeader = %+v, %v; Scan read header %+v", h, err, hdr)
		}
		// Every surviving record must have passed its checksum with
		// contiguous seqs from 1 — the "never replay a corrupted record"
		// half of the contract.
		for i, rec := range recs {
			if rec.Seq != int64(i)+1 {
				t.Fatalf("record %d has seq %d", i, rec.Seq)
			}
			if rec.Op.Op != exp.OpInsert && rec.Op.Op != exp.OpDelete {
				t.Fatalf("record %d has op %q", i, rec.Op.Op)
			}
		}
		// Truncation must be a fixpoint: scanning the good prefix yields the
		// same state and declares it clean — Open after a crash-after-crash
		// converges instead of shedding records forever.
		hdr2, recs2, good2, err2 := Scan(data[:good])
		if err2 != nil {
			t.Fatalf("rescan of good prefix failed: %v", err2)
		}
		if good2 != good {
			t.Fatalf("rescan truncates further: %d then %d", good, good2)
		}
		if hdr2 != hdr || len(recs2) != len(recs) {
			t.Fatalf("rescan diverged: %d records then %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs[i] != recs2[i] {
				t.Fatalf("rescan record %d diverged", i)
			}
		}
	})
}

// validLog encodes a healthy n-record log image.
func validLog(n int) []byte {
	var buf []byte
	hdr := Header{Session: "fuzz", Base: exp.GraphSpec{Family: "cycle", N: 16}}
	buf = append(buf, frameRecord(encodeHeader(hdr))...)
	for seq := int64(1); seq <= int64(n); seq++ {
		rec := Record{Seq: seq, Op: exp.Mutation{Op: exp.OpInsert, U: int(seq), V: int(seq + 1)}}
		for i := range rec.Fingerprint {
			rec.Fingerprint[i] = byte(seq * int64(i))
		}
		buf = append(buf, frameRecord(encodeMutation(rec))...)
	}
	return buf
}

func headerOnlyLen(data []byte) int {
	_, next, _ := readFrame(data, 0)
	return next
}
