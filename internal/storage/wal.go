// Package storage holds the batch write-ahead log of the durable index
// (the sealed label data itself lives in internal/segment).
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"hopi/internal/twohop"
)

// WAL is the write-ahead log that makes incremental maintenance of the
// durable index restartable: HOPI's §4 updates the cover batch by
// batch, and the log is what lets a crash-interrupted sequence of
// updates be replayed over the last sealed segment state instead of
// rebuilding the index (the paper's motivation for incremental
// maintenance at database scale).
//
// The file is a sequence of length- and CRC-framed records:
//
//	record  := payloadLen u32 | crc32(payload) u32 | payload
//	payload := 0x01 | seq u64 | collLen u32 | coll bytes
//	                | numOps u32 | { kind u8, node u32, center u32, dist u32 }*
//
// All integers little endian. A record carries one maintenance batch:
// an opaque collection-op payload (the caller's encoding) plus the
// cover's label deltas. Any other record kind is rejected as
// undecodable.
//
// Appends are forced to stable storage (fsync) before they are
// reported committed. Reset truncates the log after a checkpoint has
// sealed its batches into a segment. A torn tail (short or
// CRC-mismatched final record, from a crash mid-append) is detected on
// open and truncated away; every record before it is intact by
// construction.
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
}

const (
	walRecBatch = 0x01

	// walMaxRecord bounds a single record (64 MiB).
	walMaxRecord = 64 << 20
)

// WALRecord is one decoded batch record.
type WALRecord struct {
	Seq  uint64
	Coll []byte              // opaque collection-op payload
	Ops  []twohop.CoverDelta // cover label deltas
}

// OpenWAL opens (creating if absent) the log at path, scans it, and
// returns the intact records in order. A torn tail is truncated so the
// next append starts at a record boundary.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path}
	recs, good, err := w.scan()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	w.size = good
	return w, recs, nil
}

// scan decodes records from the start of the file, returning the
// decoded records and the offset of the first byte past the last
// intact record.
func (w *WAL) scan() ([]WALRecord, int64, error) {
	var (
		recs []WALRecord
		off  int64
		hdr  [8]byte
	)
	for {
		if _, err := w.f.ReadAt(hdr[:], off); err != nil {
			break // io.EOF or short tail: stop at last intact record
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > walMaxRecord {
			break
		}
		payload := make([]byte, n)
		if _, err := w.f.ReadAt(payload, off+8); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		rec, err := decodeWALPayload(payload)
		if err != nil {
			break
		}
		recs = append(recs, rec)
		off += 8 + int64(n)
	}
	return recs, off, nil
}

func decodeWALPayload(p []byte) (WALRecord, error) {
	var rec WALRecord
	if len(p) < 9 {
		return rec, fmt.Errorf("storage: wal record too short")
	}
	if typ := p[0]; typ != walRecBatch {
		return rec, fmt.Errorf("storage: unknown wal record type %d", typ)
	}
	rec.Seq = binary.LittleEndian.Uint64(p[1:])
	p = p[9:]
	if len(p) < 4 {
		return rec, fmt.Errorf("storage: truncated wal batch")
	}
	collLen := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(len(p)) < uint64(collLen)+4 {
		return rec, fmt.Errorf("storage: truncated wal batch")
	}
	if collLen > 0 {
		rec.Coll = append([]byte(nil), p[:collLen]...)
	}
	p = p[collLen:]
	nOps := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(len(p)) != uint64(nOps)*13 {
		return rec, fmt.Errorf("storage: wal batch op count mismatch")
	}
	rec.Ops = make([]twohop.CoverDelta, nOps)
	for i := range rec.Ops {
		rec.Ops[i] = twohop.CoverDelta{
			Kind:   twohop.DeltaKind(p[0]),
			Node:   int32(binary.LittleEndian.Uint32(p[1:])),
			Center: int32(binary.LittleEndian.Uint32(p[5:])),
			Dist:   binary.LittleEndian.Uint32(p[9:]),
		}
		p = p[13:]
	}
	return rec, nil
}

// AppendBatch commits one maintenance batch: the opaque collection-op
// payload plus the cover deltas, forced to disk before returning.
func (w *WAL) AppendBatch(seq uint64, coll []byte, ops []twohop.CoverDelta) error {
	payload := make([]byte, 0, 9+4+len(coll)+4+13*len(ops))
	payload = append(payload, walRecBatch)
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(coll)))
	payload = append(payload, coll...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops)))
	for _, op := range ops {
		payload = append(payload, byte(op.Kind))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(op.Node))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(op.Center))
		payload = binary.LittleEndian.AppendUint32(payload, op.Dist)
	}
	return w.append(payload)
}

func (w *WAL) append(payload []byte) error {
	if len(payload) > walMaxRecord {
		return fmt.Errorf("storage: wal record of %d bytes exceeds limit", len(payload))
	}
	start := time.Now()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.WriteAt(hdr[:], w.size); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(payload, w.size+8); err != nil {
		return err
	}
	syncStart := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.OnAppend != nil {
		w.OnAppend(time.Since(start), time.Since(syncStart), 8+len(payload))
	}
	w.size += 8 + int64(len(payload))
	return nil
}

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
	recs, _, err := w.scan()
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
