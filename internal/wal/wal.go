// Package wal is the per-session mutation write-ahead log that makes dynamic
// coloring sessions durable: every committed mutation appends one record
// (sequence number, op, post-commit graph fingerprint), and a restarted
// process rebuilds the session byte-identically by replaying the log from the
// base graph (dynamic.Replay). Determinism is what makes the log sufficient —
// the maintained coloring is a pure function of the mutation sequence, so the
// ops alone reconstruct the exact state, and the recorded fingerprints prove
// it record by record.
//
// On-disk format: a header record followed by mutation records, each framed
// as
//
//	uvarint(len(payload)) | payload | crc32c(payload) (4 bytes, little endian)
//
// with payloads in the repository's wire codec (internal/wire). Appends go
// straight to the file descriptor (no userspace buffering), so a crashed
// process loses at most what the OS page cache held; Options.Sync trades
// throughput for fsync-per-append durability against power loss.
//
// Recovery distinguishes two failure shapes:
//
//   - a torn tail — the record under scan runs past end-of-file, or the
//     final record's checksum fails (a partial append that never finished).
//     Open truncates the file at the last good record and continues; the
//     lost suffix was never acknowledged;
//   - corruption — a record that is fully present and followed by more data
//     fails its checksum, decodes badly, or breaks sequence continuity.
//     That is not an interrupted append, so Open refuses with ErrCorrupt
//     rather than silently dropping acknowledged history.
//
// FuzzWALReplay pins the contract: arbitrary byte mutations of a valid log
// never panic and never yield a record that was not written — every open
// either returns a verified prefix (clean truncation) or an error.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/wire"
)

// ErrCorrupt reports a log whose damage is not a torn tail: a fully-present
// record failed its checksum, decoded badly, or broke seq continuity.
var ErrCorrupt = errors.New("wal: corrupt log")

// crcTable is the Castagnoli polynomial — hardware-accelerated on amd64 and
// arm64, and the conventional choice for storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecord bounds a single record's payload. Mutation records are tens of
// bytes and headers hundreds; the cap keeps a corrupted length prefix from
// asking Open to allocate gigabytes before the checksum can object.
const maxRecord = 1 << 20

// record type tags (first uvarint of every payload).
const (
	recHeader   = 1
	recMutation = 2
)

// headerTag versions the header payload.
const headerTag = "colord-wal-v1"

// Options configures a log's durability policy.
type Options struct {
	// Sync fsyncs after every append: a committed mutation survives power
	// loss, not just process death. Off, appends still reach the kernel
	// immediately (no userspace buffering), so a SIGKILL loses nothing and
	// only a machine crash can drop the tail.
	Sync bool
}

// Header identifies the session a log belongs to: replay rebuilds the base
// graph from Base and applies the records in order.
type Header struct {
	// Session is the session name the log was created under.
	Session string
	// Base is the session's starting graph.
	Base exp.GraphSpec
}

// Record is one committed mutation. Seq is 1-based and consecutive;
// Fingerprint is the edge-set fingerprint after the mutation committed — the
// proof obligation replay checks record by record.
type Record struct {
	Seq         int64
	Op          exp.Mutation
	Fingerprint graph.Fingerprint
}

// Log is an open write-ahead log positioned for appends. Append/Sync/Close
// serialize externally (the maintainer's commit lock); LastSeq and Size are
// safe to read concurrently (monitoring snapshots poll them mid-churn).
type Log struct {
	f       *os.File
	opts    Options
	lastSeq atomic.Int64
	size    atomic.Int64
	err     error // first append failure; latches (durability is broken)
}

// Create creates a fresh log at path (failing if one exists — a session's
// history must never be silently overwritten) and writes its header.
func Create(path string, hdr Header, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, opts: opts}
	frame := frameRecord(encodeHeader(hdr))
	if err := l.write(frame); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return l, nil
}

// Open reads an existing log: it validates every record (checksum, decode,
// seq continuity), truncates a torn tail, and returns the log positioned for
// appends plus the header and the verified records. Damage that is not a
// torn tail is ErrCorrupt — acknowledged history is never silently dropped.
func Open(path string, opts Options) (*Log, Header, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, Header{}, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, Header{}, nil, err
	}
	hdr, recs, good, err := Scan(data)
	if err != nil {
		f.Close()
		return nil, Header{}, nil, err
	}
	if good < int64(len(data)) {
		// Torn tail: drop the unacknowledged suffix and continue from the
		// last good record.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, Header{}, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, Header{}, nil, err
	}
	l := &Log{f: f, opts: opts}
	l.size.Store(good)
	if n := len(recs); n > 0 {
		l.lastSeq.Store(recs[n-1].Seq)
	}
	return l, hdr, recs, nil
}

// ReadHeader reads only a log's header record — the first frame, bounded by
// maxRecord and checked exactly as Scan checks it — without touching the
// mutation records behind it. It is the cheap way to learn which session a
// log belongs to before deciding to Open it; Open still proves every record.
// A torn or damaged header is ErrCorrupt; whenever Scan accepts a log image,
// ReadHeader returns the same header.
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return readHeader(f)
}

// readHeader is ReadHeader over any reader: it reads the length prefix, then
// exactly the rest of the first frame.
func readHeader(r io.Reader) (Header, error) {
	var prefix [binary.MaxVarintLen64]byte
	k, err := io.ReadFull(r, prefix[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return Header{}, err
	}
	frame := prefix[:k]
	if n, w := uvarint(frame); w > 0 && n <= maxRecord && w+int(n)+4 > k {
		frame = make([]byte, w+int(n)+4)
		copy(frame, prefix[:k])
		got, err := io.ReadFull(r, frame[k:])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return Header{}, err
		}
		frame = frame[:k+got]
	}
	payload, _, st := readFrame(frame, 0)
	switch st {
	case frameTorn:
		return Header{}, fmt.Errorf("%w: no header record", ErrCorrupt)
	case frameCorrupt:
		return Header{}, fmt.Errorf("%w: record at offset 0", ErrCorrupt)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return hdr, nil
}

// Scan parses a log image: the in-memory core of Open, exported so recovery
// logic (and the fuzz harness) can run against raw bytes. It returns the
// header, the verified records, and the byte offset of the first torn (and
// therefore truncatable) byte; good == len(data) means the log is clean.
func Scan(data []byte) (hdr Header, recs []Record, good int64, err error) {
	off := 0
	first := true
	var lastSeq int64
	for off < len(data) {
		payload, next, st := readFrame(data, off)
		if st == frameTorn {
			if first {
				// The header itself is torn (a crash mid-Create): with no
				// complete header there is no session to recover, so this is
				// not a truncatable tail.
				return Header{}, nil, 0, fmt.Errorf("%w: no header record", ErrCorrupt)
			}
			return hdr, recs, int64(off), nil
		}
		if st == frameCorrupt {
			return Header{}, nil, 0, fmt.Errorf("%w: record at offset %d", ErrCorrupt, off)
		}
		if first {
			h, err := decodeHeader(payload)
			if err != nil {
				// An undecodable first record that extends to EOF is a torn
				// header append — but then no record was acknowledged, and
				// treating it as corruption keeps Create's crash window
				// (header half-written) explicit for the caller.
				return Header{}, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			hdr, first = h, false
		} else {
			rec, err := decodeMutation(payload)
			if err != nil {
				return Header{}, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if rec.Seq != lastSeq+1 {
				return Header{}, nil, 0, fmt.Errorf("%w: record seq %d after %d", ErrCorrupt, rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
			recs = append(recs, rec)
		}
		off = next
	}
	if first {
		return Header{}, nil, 0, fmt.Errorf("%w: no header record", ErrCorrupt)
	}
	return hdr, recs, int64(off), nil
}

type frameStatus int

const (
	frameOK frameStatus = iota
	// frameTorn: the record runs past EOF, or it is the final record and its
	// checksum fails — an interrupted append, truncatable.
	frameTorn
	// frameCorrupt: the record is fully present, more data follows, and the
	// checksum fails — damage to acknowledged history.
	frameCorrupt
)

// readFrame parses one framed record at off. next is the offset after the
// frame (valid only for frameOK).
func readFrame(data []byte, off int) (payload []byte, next int, st frameStatus) {
	n, w := uvarint(data[off:])
	if w <= 0 {
		return nil, 0, frameTorn // length prefix runs past EOF
	}
	if n > maxRecord {
		// A length this large was never written; whether a flipped bit or a
		// torn multi-byte prefix, nothing after it can be framed.
		return nil, 0, frameTorn
	}
	body := off + w
	end := body + int(n) + 4
	if end > len(data) {
		return nil, 0, frameTorn // record runs past EOF: interrupted append
	}
	payload = data[body : body+int(n)]
	sum := uint32(data[end-4]) | uint32(data[end-3])<<8 | uint32(data[end-2])<<16 | uint32(data[end-1])<<24
	if crc32.Checksum(payload, crcTable) != sum {
		if end == len(data) {
			return nil, 0, frameTorn // final record: a torn write, not damage
		}
		return nil, 0, frameCorrupt
	}
	return payload, end, frameOK
}

// uvarint is binary.Uvarint constrained to int-sized results.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// frameRecord wraps a payload in the length-prefix + checksum frame.
func frameRecord(payload []byte) []byte {
	var w wire.Writer
	w.Uint(uint64(len(payload)))
	frame := append(w.Bytes(), payload...)
	sum := crc32.Checksum(payload, crcTable)
	return append(frame, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

func encodeHeader(hdr Header) []byte {
	var w wire.Writer
	w.Uint(recHeader)
	w.String(headerTag)
	w.String(hdr.Session)
	w.String(hdr.Base.Family)
	w.Int(hdr.Base.N).Int(hdr.Base.M).Int(hdr.Base.Deg)
	w.Uint(uint64(hdr.Base.Seed))
	return w.Bytes()
}

func decodeHeader(payload []byte) (Header, error) {
	r := wire.NewReader(payload)
	if t := r.Uint(); t != recHeader {
		return Header{}, fmt.Errorf("first record has type %d, want header (%d)", t, recHeader)
	}
	if tag := r.ReadString(); tag != headerTag {
		return Header{}, fmt.Errorf("header tag %q, want %q", tag, headerTag)
	}
	var hdr Header
	hdr.Session = r.ReadString()
	hdr.Base.Family = r.ReadString()
	hdr.Base.N, hdr.Base.M, hdr.Base.Deg = r.Int(), r.Int(), r.Int()
	hdr.Base.Seed = int64(r.Uint())
	if err := r.Err(); err != nil {
		return Header{}, fmt.Errorf("header: %w", err)
	}
	if r.Remaining() != 0 {
		return Header{}, fmt.Errorf("header: %d trailing bytes", r.Remaining())
	}
	return hdr, nil
}

func encodeMutation(rec Record) []byte {
	var w wire.Writer
	w.Uint(recMutation)
	w.Uint(uint64(rec.Seq))
	op := uint64(0)
	if rec.Op.Op == exp.OpDelete {
		op = 1
	}
	w.Uint(op)
	w.Int(rec.Op.U).Int(rec.Op.V)
	w.Raw(rec.Fingerprint[:])
	return w.Bytes()
}

func decodeMutation(payload []byte) (Record, error) {
	r := wire.NewReader(payload)
	if t := r.Uint(); t != recMutation {
		return Record{}, fmt.Errorf("record type %d, want mutation (%d)", t, recMutation)
	}
	var rec Record
	rec.Seq = int64(r.Uint())
	op := r.Uint()
	switch op {
	case 0:
		rec.Op.Op = exp.OpInsert
	case 1:
		rec.Op.Op = exp.OpDelete
	default:
		return Record{}, fmt.Errorf("record op code %d", op)
	}
	rec.Op.U, rec.Op.V = r.Int(), r.Int()
	fp := r.Raw()
	if err := r.Err(); err != nil {
		return Record{}, fmt.Errorf("mutation record: %w", err)
	}
	if len(fp) != len(rec.Fingerprint) {
		return Record{}, fmt.Errorf("mutation record fingerprint is %d bytes, want %d", len(fp), len(rec.Fingerprint))
	}
	copy(rec.Fingerprint[:], fp)
	if rec.Seq <= 0 {
		return Record{}, fmt.Errorf("mutation record seq %d", rec.Seq)
	}
	if r.Remaining() != 0 {
		return Record{}, fmt.Errorf("mutation record: %d trailing bytes", r.Remaining())
	}
	return rec, nil
}

// Append writes one mutation record (and fsyncs it under Options.Sync). The
// record's Seq must continue the log's sequence. After any failure the log
// latches broken: durability can no longer be promised, so every later
// Append reports the first error.
func (l *Log) Append(rec Record) error {
	if l.err != nil {
		return l.err
	}
	if last := l.lastSeq.Load(); rec.Seq != last+1 {
		return fmt.Errorf("wal: append seq %d after %d", rec.Seq, last)
	}
	if err := l.write(frameRecord(encodeMutation(rec))); err != nil {
		return err
	}
	l.lastSeq.Store(rec.Seq)
	return nil
}

func (l *Log) write(frame []byte) error {
	if _, err := l.f.Write(frame); err != nil {
		// A partial write leaves a torn tail; the next Open truncates it.
		l.err = fmt.Errorf("wal: append: %w", err)
		return l.err
	}
	l.size.Add(int64(len(frame)))
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("wal: fsync: %w", err)
			return l.err
		}
	}
	return nil
}

// Sync forces the log to stable storage regardless of Options.Sync.
func (l *Log) Sync() error {
	if l.err != nil {
		return l.err
	}
	return l.f.Sync()
}

// LastSeq reports the highest record sequence number in the log.
func (l *Log) LastSeq() int64 { return l.lastSeq.Load() }

// Size reports the log's current byte length.
func (l *Log) Size() int64 { return l.size.Load() }

// Err reports the latched append failure, if any.
func (l *Log) Err() error { return l.err }

// Close closes the file. The log stays on disk for the next Open.
func (l *Log) Close() error { return l.f.Close() }
