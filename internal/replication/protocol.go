// Package replication implements WAL-shipping replication for HOPI
// indexes: a primary streams its committed maintenance batches — the
// same deterministic ChangeLog streams the write-ahead log frames on
// disk — to any number of read-only followers over HTTP, each of which
// replays them into its own in-memory index and republishes a fresh
// snapshot per batch.
//
// The wire protocol is one long-lived NDJSON response per follower
// (GET /repl/stream?from=<seq>), a sequence of frames:
//
//	{"type":"snapshot","seq":S,...} full state image (bootstrap / lag reset)
//	{"type":"batch","seq":N,...}    one committed batch: coll ops + cover deltas
//	{"type":"hb","seq":L}           heartbeat carrying the primary's last seq
//	{"type":"error","msg":...}      terminal stream error
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
	"fmt"

	"hopi/internal/core"
	"hopi/internal/twohop"
)

// Batch is one committed maintenance batch on the wire: the opaque
// collection-op payload (core.EncodeCollOps) plus the cover label
// deltas — exactly what the primary's WAL committed under Seq.
type Batch struct {
	Seq  uint64
	Coll []byte
	Ops  []twohop.CoverDelta
}

// SegFile is one sealed segment file shipped verbatim inside a
// bootstrap image: followers adopt the primary's compressed sealed
// state without either side re-encoding a label.
type SegFile struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
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

// Frame type tags.
const (
	frameSnapshot  = "snapshot"
	frameBatch     = "batch"
	frameHeartbeat = "hb"
	frameError     = "error"
)

// frame is the NDJSON wire unit. []byte fields ride as base64 in the
// JSON; cover deltas use the WAL's fixed 13-byte binary records
// (core.EncodeCoverDeltas) rather than per-delta JSON objects.
type frame struct {
	Type     string    `json:"type"`
	Seq      uint64    `json:"seq,omitempty"`
	Scope    uint64    `json:"scope,omitempty"`
	WithDist bool      `json:"withDist,omitempty"`
	Coll     []byte    `json:"coll,omitempty"`
	Ops      []byte    `json:"ops,omitempty"`
	N        int       `json:"n,omitempty"`
	Live     int64     `json:"live,omitempty"`
	Files    []SegFile `json:"files,omitempty"`
	Msg      string    `json:"msg,omitempty"`
}

func batchFrame(b Batch) frame {
	return frame{Type: frameBatch, Seq: b.Seq, Coll: b.Coll, Ops: core.EncodeCoverDeltas(b.Ops)}
}

func imageFrame(img *Image) frame {
	return frame{
		Type: frameSnapshot, Seq: img.Seq, Scope: img.Scope, WithDist: img.WithDist,
		Coll: img.Coll, Ops: core.EncodeCoverDeltas(img.Ops),
		N: img.N, Live: img.Live, Files: img.Files,
	}
}

func (f *frame) batch() (Batch, error) {
	ops, err := core.DecodeCoverDeltas(f.Ops)
	if err != nil {
		return Batch{}, fmt.Errorf("replication: batch %d: %w", f.Seq, err)
	}
	return Batch{Seq: f.Seq, Coll: f.Coll, Ops: ops}, nil
}

func (f *frame) image() (*Image, error) {
	ops, err := core.DecodeCoverDeltas(f.Ops)
	if err != nil {
		return nil, fmt.Errorf("replication: snapshot %d: %w", f.Seq, err)
	}
	return &Image{
		Seq: f.Seq, Scope: f.Scope, WithDist: f.WithDist, Coll: f.Coll, Ops: ops,
		N: f.N, Live: f.Live, Files: f.Files,
	}, nil
}
