package core

import (
	"bytes"
	"encoding/gob"

	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// ChangeLog wire encoding
//
// A recorded maintenance batch travels in two independent streams: the
// collection ops (document bodies inlined) and the cover label deltas.
// The collection side is encoded here; storage.EncodeBatch frames it
// with the deltas as one write-ahead log record, and the replication
// subsystem ships that record's bytes to followers, so a batch replayed
// from the log and a batch applied over the wire are indistinguishable.

// walCollOp is the flat DTO one collection op serializes as. The type
// name is part of the gob stream (and therefore of the WAL bytes) —
// keep it stable.
type walCollOp struct {
	Kind     uint8
	Name     string
	Elements []xmlmodel.Element
	Intra    [][2]int32
	DocIdx   int
	From, To int32
}

// EncodeCollOps serializes a batch's collection-op stream. The
// encoding is deterministic for identical logical ops, which keeps
// WALs byte-stable across independent replicas.
func EncodeCollOps(ops []CollOp) ([]byte, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	dtos := make([]walCollOp, len(ops))
	for i, op := range ops {
		dto := walCollOp{Kind: uint8(op.Kind), DocIdx: op.DocIdx, From: op.From, To: op.To}
		if op.Kind == CollAddDoc {
			dto.Name = op.Doc.Name
			dto.Elements = op.Doc.Elements
			dto.Intra = op.Doc.IntraLinks
		}
		dtos[i] = dto
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dtos); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCollOps reverses EncodeCollOps.
func DecodeCollOps(b []byte) ([]CollOp, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var dtos []walCollOp
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&dtos); err != nil {
		return nil, err
	}
	ops := make([]CollOp, len(dtos))
	for i, dto := range dtos {
		op := CollOp{Kind: CollOpKind(dto.Kind), DocIdx: dto.DocIdx, From: dto.From, To: dto.To}
		if op.Kind == CollAddDoc {
			op.Doc = xmlmodel.NewDocumentFromParts(dto.Name, dto.Elements, dto.Intra)
		}
		ops[i] = op
	}
	return ops, nil
}

// ApplyLogged replays one recorded batch — its collection ops plus its
// cover deltas — onto a live index. This is the apply-from-log entry
// point shared by crash recovery and replication followers: the same
// streams a ChangeLog captured on the primary reproduce the post-batch
// state here, byte for byte on the labels. The two streams are
// independent (cover deltas carry global IDs and explicit grows), so
// replaying the collection side first and the cover side second is
// equivalent to the interleaved original execution.
// Callers serialize ApplyLogged against all other maintenance.
func (ix *Index) ApplyLogged(collOps []CollOp, cover []twohop.CoverDelta) error {
	if err := ReplayCollOps(ix.coll, collOps); err != nil {
		return err
	}
	ix.cover.Apply(cover)
	return nil
}
