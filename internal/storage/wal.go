// Package storage holds the batch write-ahead log of the durable index
// (the sealed label data itself lives in internal/segment) and the
// record framing the log shares with the replication stream.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"hopi/internal/twohop"
)

// Records
//
// The log file and the replication stream are both sequences of
// length- and CRC-framed records:
//
//	record := payloadLen u32 | crc32(payload) u32 | payload
//
// All integers little endian. The first payload byte is the record
// kind; the log holds only batch records (kind 0x01), and the
// replication stream adds kinds of its own around them. A batch on the
// wire is the very record the log fsynced.

const (
	// RecordHeader is the size of a record's length and checksum.
	RecordHeader = 8
	// MaxRecord bounds a record's payload (64 MiB).
	MaxRecord = 64 << 20

	recBatch = 0x01
	// deltaSize is one cover delta inside a batch: kind u8, node u32,
	// center u32, dist u32.
	deltaSize = 13
)

var (
	// ErrTruncated is wrapped by ReadRecord when the input ends inside a
	// record.
	ErrTruncated = errors.New("storage: truncated record")
	// ErrCorrupt is wrapped by ReadRecord for an out-of-range length or
	// a checksum mismatch.
	ErrCorrupt = errors.New("storage: corrupt record")
)

// AppendRecord appends to dst one record whose payload is the
// concatenation of parts.
func AppendRecord(dst []byte, parts ...[]byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, RecordHeader)...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	sealRecord(dst[start:])
	return dst
}

// sealRecord fills in the header of rec, whose payload already follows
// RecordHeader reserved bytes.
func sealRecord(rec []byte) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(rec)-RecordHeader))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[RecordHeader:]))
}

// ReadRecord reads the next record from r and returns it whole, header
// included, once its checksum verifies. It returns io.EOF at a clean
// record boundary, an error wrapping ErrTruncated when r ends inside a
// record, and one wrapping ErrCorrupt for a bad length or checksum. The
// buffer grows with the bytes that actually arrive, so a corrupt length
// costs no more memory than the input behind it.
func ReadRecord(r io.Reader) ([]byte, error) {
	var hdr [RecordHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: short header", ErrTruncated)
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:]))
	if n == 0 || n > MaxRecord {
		return nil, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	want := RecordHeader + n
	rec := append(make([]byte, 0, min(want, 64<<10)), hdr[:]...)
	for len(rec) < want {
		if len(rec) == cap(rec) {
			rec = append(make([]byte, 0, min(want, 2*cap(rec))), rec...)
		}
		m, err := io.ReadFull(r, rec[len(rec):cap(rec)])
		rec = rec[:len(rec)+m]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTruncated, len(rec)-RecordHeader, n)
		}
		if err != nil {
			return nil, err
		}
	}
	if crc32.ChecksumIEEE(rec[RecordHeader:]) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return rec, nil
}

// WAL is the write-ahead log that makes incremental maintenance of the
// durable index restartable: HOPI's §4 updates the cover batch by
// batch, and the log is what lets a crash-interrupted sequence of
// updates be replayed over the last sealed segment state instead of
// rebuilding the index (the paper's motivation for incremental
// maintenance at database scale).
//
// The file is a sequence of batch records (EncodeBatch). Appends are
// forced to stable storage (fsync) before they are reported committed.
// Reset truncates the log after a checkpoint has sealed its batches
// into a segment. A torn tail — a final record that runs short or fails
// its checksum, from a crash mid-append — is truncated away on open;
// every record before it is intact by construction. A bad record with
// more bytes after it is corruption, and so is an intact record that
// does not decode: OpenWAL fails on both rather than drop the committed
// batches behind them.
type WAL struct {
	f    *os.File
	path string
	size int64

	// OnAppend, when set, observes every committed append: the full
	// append duration, the fsync portion of it, and the record size in
	// bytes (header included). Set it before the WAL is shared — the
	// owning index serializes appends under its write lock, so the
	// callback itself never races, but the field write must
	// happen-before first use.
	OnAppend func(total, fsync time.Duration, bytes int)

	// DeferSync makes Append only write: its records reach stable
	// storage at the owner's next Sync (or Reset). A replication
	// follower, whose batches the primary already holds durably, syncs
	// once per burst instead of once per batch.
	DeferSync bool
}

// WALRecord is one decoded batch record.
type WALRecord struct {
	Seq  uint64
	Coll []byte              // opaque collection-op payload
	Ops  []twohop.CoverDelta // cover label deltas
	Raw  []byte              // the framed record, header included, as logged
}

// EncodeBatch returns the framed record of one maintenance batch — an
// opaque collection-op payload (the caller's encoding) plus the cover's
// label deltas:
//
//	payload := 0x01 | seq u64 | collLen u32 | coll bytes
//	                | numOps u32 | { kind u8, node u32, center u32, dist u32 }*
func EncodeBatch(seq uint64, coll []byte, ops []twohop.CoverDelta) []byte {
	rec := make([]byte, RecordHeader, RecordHeader+1+8+4+len(coll)+4+deltaSize*len(ops))
	rec = append(rec, recBatch)
	rec = binary.LittleEndian.AppendUint64(rec, seq)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(coll)))
	rec = append(rec, coll...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(ops)))
	for _, op := range ops {
		rec = append(rec, byte(op.Kind))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(op.Node))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(op.Center))
		rec = binary.LittleEndian.AppendUint32(rec, op.Dist)
	}
	sealRecord(rec)
	return rec
}

// DecodeBatch decodes a framed batch record whose frame ReadRecord has
// verified. Coll aliases rec.
func DecodeBatch(rec []byte) (WALRecord, error) {
	out := WALRecord{Raw: rec}
	if len(rec) < RecordHeader+9 {
		return out, fmt.Errorf("storage: record too short")
	}
	p := rec[RecordHeader:]
	if typ := p[0]; typ != recBatch {
		return out, fmt.Errorf("storage: unknown record kind %#x", typ)
	}
	out.Seq = binary.LittleEndian.Uint64(p[1:])
	p = p[9:]
	if len(p) < 4 {
		return out, fmt.Errorf("storage: truncated batch")
	}
	collLen := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(len(p)) < uint64(collLen)+4 {
		return out, fmt.Errorf("storage: truncated batch")
	}
	if collLen > 0 {
		out.Coll = p[:collLen:collLen]
	}
	p = p[collLen:]
	nOps := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(len(p)) != uint64(nOps)*deltaSize {
		return out, fmt.Errorf("storage: batch op count mismatch")
	}
	out.Ops = make([]twohop.CoverDelta, nOps)
	for i := range out.Ops {
		out.Ops[i] = twohop.CoverDelta{
			Kind:   twohop.DeltaKind(p[0]),
			Node:   int32(binary.LittleEndian.Uint32(p[1:])),
			Center: int32(binary.LittleEndian.Uint32(p[5:])),
			Dist:   binary.LittleEndian.Uint32(p[9:]),
		}
		p = p[deltaSize:]
	}
	return out, nil
}

// OpenWAL opens (creating if absent) the log at path, scans it, and
// returns the intact records in order. A torn tail is truncated so the
// next append starts at a record boundary; corruption anywhere else is
// an error naming its offset.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path}
	st, err := f.Stat()
	var recs []WALRecord
	if err == nil {
		recs, w.size, err = w.scan(st.Size())
	}
	if err == nil && st.Size() > w.size {
		if err = f.Truncate(w.size); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, recs, nil
}

// scan decodes the records in the first size bytes of the file,
// returning them and the offset just past the last one: size itself,
// or the start of a torn tail.
func (w *WAL) scan(size int64) ([]WALRecord, int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(w.f, 0, size), 64<<10)
	var (
		recs []WALRecord
		off  int64
	)
	for {
		raw, err := ReadRecord(r)
		if err == io.EOF || (err != nil && w.tornAt(off, size, err)) {
			return recs, off, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("storage: wal %s: record at offset %d: %w", w.path, off, err)
		}
		rec, err := DecodeBatch(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: wal %s: record at offset %d: %w", w.path, off, err)
		}
		recs = append(recs, rec)
		off += int64(len(raw))
	}
}

// tornAt reports whether the record at off that ReadRecord rejected
// with err is a torn tail: one whose declared extent reaches the end of
// the log.
func (w *WAL) tornAt(off, size int64, err error) bool {
	if errors.Is(err, ErrTruncated) {
		return true
	}
	var n [4]byte
	if !errors.Is(err, ErrCorrupt) {
		return false
	}
	if _, err := w.f.ReadAt(n[:], off); err != nil {
		return false
	}
	return off+RecordHeader+int64(binary.LittleEndian.Uint32(n[:])) >= size
}

// AppendBatch commits one maintenance batch: the opaque collection-op
// payload plus the cover deltas, forced to disk before returning.
func (w *WAL) AppendBatch(seq uint64, coll []byte, ops []twohop.CoverDelta) error {
	return w.Append(EncodeBatch(seq, coll, ops))
}

// Append commits one framed batch record (EncodeBatch) verbatim, forced
// to disk before returning unless DeferSync is set.
func (w *WAL) Append(rec []byte) error {
	if len(rec)-RecordHeader > MaxRecord {
		return fmt.Errorf("storage: wal record of %d bytes exceeds limit", len(rec)-RecordHeader)
	}
	start := time.Now()
	if _, err := w.f.WriteAt(rec, w.size); err != nil {
		return err
	}
	var fsync time.Duration
	if !w.DeferSync {
		syncStart := time.Now()
		if err := w.Sync(); err != nil {
			return err
		}
		fsync = time.Since(syncStart)
	}
	if w.OnAppend != nil {
		w.OnAppend(time.Since(start), fsync, len(rec))
	}
	w.size += int64(len(rec))
	return nil
}

// Sync forces every appended record to stable storage.
func (w *WAL) Sync() error { return w.f.Sync() }

// BatchesFrom re-reads the log and returns the committed batch records
// with Seq >= from, in order. ok reports whether the log actually
// covers from — i.e. its batch records form a contiguous run whose
// first sequence is exactly from. A log that was truncated by a
// checkpoint no longer covers the folded batches; callers (the
// replication publisher's lagging-follower fallback) must then fall
// back to a full state image instead of the delta stream.
//
// The caller must exclude concurrent appends and resets for the
// duration of the call (hopi.Index serializes them under its write
// lock and reads the tail under the read side).
func (w *WAL) BatchesFrom(from uint64) ([]WALRecord, bool, error) {
	recs, _, err := w.scan(w.size)
	if err != nil {
		return nil, false, err
	}
	var out []WALRecord
	for _, r := range recs {
		if r.Seq < from {
			continue
		}
		out = append(out, r)
	}
	if len(out) == 0 || out[0].Seq != from {
		return nil, false, nil
	}
	for i := 1; i < len(out); i++ {
		if out[i].Seq != out[i-1].Seq+1 {
			return nil, false, fmt.Errorf("storage: wal batch gap: %d follows %d", out[i].Seq, out[i-1].Seq)
		}
	}
	return out, true, nil
}

// Reset truncates the log to empty — called after a checkpoint has
// made every logged change durable in the segment store.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = 0
	return nil
}

// Size returns the current log size in bytes.
func (w *WAL) Size() int64 { return w.size }

// Empty reports whether the log holds no committed records.
func (w *WAL) Empty() bool { return w.size == 0 }

// Close closes the log file without truncating it.
func (w *WAL) Close() error { return w.f.Close() }
