// Package replication implements WAL-shipping replication for HOPI
// indexes: a primary streams its committed maintenance batches — the
// very records its write-ahead log fsynced — to any number of read-only
// followers over HTTP, each of which replays them into its own
// in-memory index and republishes a fresh snapshot per burst.
//
// The wire protocol is one long-lived binary response per follower
// (GET /repl/stream?from=<seq>): a sequence of storage records
// (len u32 | crc32 u32 | payload, see storage.ReadRecord), each named
// by its first payload byte:
//
//	0x01 batch      one committed batch, byte for byte the primary's WAL record
//	0x10 heartbeat  seq u64: the primary's last committed sequence
//	0x11 image      header of a full state image (bootstrap / lag reset)
//	0x12 chunk      the next bytes of the image announced before it
//	0x13 error      a terminal stream error message
//
// from is the first sequence the follower still needs; from=0 asks for
// a bootstrap image. The publisher serves batches from a bounded
// in-memory tail, falls back to re-reading the primary's WAL for
// followers that lag past the tail, and falls back again to a full
// snapshot image when a checkpoint has truncated the needed batches
// out of the log. Sequence numbers are the primary's durable WAL batch
// sequences, so a follower's applied sequence is directly comparable
// across replicas (resume tokens exploit this).
package replication

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"hopi/internal/storage"
	"hopi/internal/twohop"
)

// streamContentType labels the record stream.
const streamContentType = "application/x-hopi-wal"

// Record kinds of the stream's own records; batches keep the WAL's
// kind 0x01.
const (
	kindHeartbeat byte = 0x10 + iota
	kindImage
	kindChunk
	kindError
)

// imageChunk bounds the image bytes one chunk record carries, so no
// record nears storage.MaxRecord even for a paper-scale sealed file.
// A variable so tests can stream multi-chunk images cheaply.
var imageChunk = 4 << 20

// SegFile is one sealed segment file shipped verbatim inside a
// bootstrap image: followers adopt the primary's compressed sealed
// state without either side re-encoding a label.
type SegFile struct {
	Name string
	Data []byte
}

// Image is a full state snapshot used to bootstrap an empty follower
// (or reset one that lagged past the retained history): the encoded
// collection plus the cover state, consistent as of Seq. The primary
// ships its sealed segment files verbatim in Files (with N and Live
// describing the adopted shape) — the bytes come straight from the
// primary's mappings, cut without holding the index lock across the
// encode — and its unsealed in-memory delta as the replayable Ops
// stream on top. Scope is the primary's replication-
// scope identity, which followers adopt so resume tokens are honored
// only within one replication group.
type Image struct {
	Seq      uint64
	Scope    uint64
	WithDist bool
	Coll     []byte
	Ops      []twohop.CoverDelta
	N        int
	Live     int64
	Files    []SegFile
}

func record(kind byte, data []byte) []byte {
	return storage.AppendRecord(nil, []byte{kind}, data)
}

func heartbeat(seq uint64) []byte {
	return record(kindHeartbeat, binary.LittleEndian.AppendUint64(nil, seq))
}

func decodeHeartbeat(rec []byte) (uint64, error) {
	p := rec[storage.RecordHeader+1:]
	if len(p) != 8 {
		return 0, fmt.Errorf("replication: heartbeat of %d bytes", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// imageHeader is an image's first record: everything but the bytes,
// which follow in chunk records part by part — first the state (the
// image's collection and delta as one batch record at Seq, so the
// delta layout has a single codec), then each file.
//
//	payload := 0x11 | seq u64 | scope u64 | withDist u8 | n u64 | live u64
//	                | stateLen u64 | numFiles u32 | { nameLen u32, name, size u64 }*
type imageHeader struct {
	seq, scope uint64
	withDist   bool
	n, live    uint64
	stateLen   uint64
	names      []string
	sizes      []uint64
}

func (h *imageHeader) payload() []byte {
	p := []byte{kindImage}
	p = binary.LittleEndian.AppendUint64(p, h.seq)
	p = binary.LittleEndian.AppendUint64(p, h.scope)
	var dist byte
	if h.withDist {
		dist = 1
	}
	p = append(p, dist)
	p = binary.LittleEndian.AppendUint64(p, h.n)
	p = binary.LittleEndian.AppendUint64(p, h.live)
	p = binary.LittleEndian.AppendUint64(p, h.stateLen)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(h.names)))
	for i, name := range h.names {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(name)))
		p = append(p, name...)
		p = binary.LittleEndian.AppendUint64(p, h.sizes[i])
	}
	return p
}

// imageFixed is the size of an image header before its file list.
const imageFixed = 1 + 8 + 8 + 1 + 8 + 8 + 8 + 4

func decodeImageHeader(rec []byte) (*imageHeader, error) {
	le := binary.LittleEndian
	bad := fmt.Errorf("replication: malformed image header")
	p := rec[storage.RecordHeader:]
	if len(p) < imageFixed || p[17] > 1 {
		return nil, bad
	}
	h := &imageHeader{
		seq: le.Uint64(p[1:]), scope: le.Uint64(p[9:]), withDist: p[17] == 1,
		n: le.Uint64(p[18:]), live: le.Uint64(p[26:]), stateLen: le.Uint64(p[34:]),
	}
	files := le.Uint32(p[42:])
	for p = p[imageFixed:]; files > 0; files-- {
		if len(p) < 4 || uint64(len(p)) < 4+uint64(le.Uint32(p))+8 {
			return nil, bad
		}
		name := p[4 : 4+le.Uint32(p)]
		h.names = append(h.names, string(name))
		h.sizes = append(h.sizes, le.Uint64(p[4+len(name):]))
		p = p[4+len(name)+8:]
	}
	if len(p) != 0 {
		return nil, bad
	}
	return h, nil
}

// writeImage streams img as its header record followed by the chunk
// records of its parts.
func writeImage(w io.Writer, img *Image) error {
	state := storage.EncodeBatch(img.Seq, img.Coll, img.Ops)
	h := imageHeader{
		seq: img.Seq, scope: img.Scope, withDist: img.WithDist,
		n: uint64(img.N), live: uint64(img.Live), stateLen: uint64(len(state)),
	}
	parts := [][]byte{state}
	for _, f := range img.Files {
		h.names = append(h.names, f.Name)
		h.sizes = append(h.sizes, uint64(len(f.Data)))
		parts = append(parts, f.Data)
	}
	if _, err := w.Write(storage.AppendRecord(nil, h.payload())); err != nil {
		return err
	}
	var buf []byte
	for _, part := range parts {
		for off := 0; off < len(part); off += imageChunk {
			buf = storage.AppendRecord(buf[:0], []byte{kindChunk}, part[off:min(off+imageChunk, len(part))])
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// readImage decodes the image whose header record is rec, reading its
// chunk records from r.
func readImage(rec []byte, r io.Reader) (*Image, error) {
	h, err := decodeImageHeader(rec)
	if err != nil {
		return nil, err
	}
	raw, err := readPart(r, h.stateLen)
	if err != nil {
		return nil, err
	}
	state, err := storage.DecodeBatch(raw)
	if err == nil && state.Seq != h.seq {
		err = fmt.Errorf("state record at seq %d", state.Seq)
	}
	if err != nil {
		return nil, fmt.Errorf("replication: image %d: %w", h.seq, err)
	}
	img := &Image{
		Seq: h.seq, Scope: h.scope, WithDist: h.withDist,
		Coll: state.Coll, Ops: state.Ops, N: int(h.n), Live: int64(h.live),
	}
	for i, name := range h.names {
		data, err := readPart(r, h.sizes[i])
		if err != nil {
			return nil, err
		}
		img.Files = append(img.Files, SegFile{Name: name, Data: data})
	}
	return img, nil
}

// readPart reassembles one image part of n bytes from the chunk
// records that carry it. The buffer grows with the bytes received,
// never ahead of them.
func readPart(r io.Reader, n uint64) ([]byte, error) {
	var out []byte
	for uint64(len(out)) < n {
		rec, err := storage.ReadRecord(r)
		if err != nil {
			return nil, fmt.Errorf("replication: image chunk: %w", err)
		}
		if kind := rec[storage.RecordHeader]; kind != kindChunk {
			return nil, fmt.Errorf("replication: record kind %#x inside an image", kind)
		}
		data := rec[storage.RecordHeader+1:]
		need := n - uint64(len(out))
		if uint64(len(data)) > need {
			return nil, fmt.Errorf("replication: image chunk overruns its part by %d bytes", uint64(len(data))-need)
		}
		out = slices.Grow(out, int(min(need, uint64(max(len(out), len(data))))))
		out = append(out, data...)
	}
	return out, nil
}
