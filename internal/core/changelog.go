package core

import (
	"fmt"

	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// CollOpKind discriminates collection-level maintenance operations.
type CollOpKind uint8

// Collection operation kinds. The numeric values are part of the WAL
// on-disk format — append new kinds, never renumber.
const (
	// CollAddDoc appends Doc to the collection (assigning the next
	// document index and global ID range).
	CollAddDoc CollOpKind = 1
	// CollRemoveDoc tombstones document DocIdx.
	CollRemoveDoc CollOpKind = 2
	// CollAddLink records a link From→To (global element IDs; stored as
	// an intra link when both ends share a document).
	CollAddLink CollOpKind = 3
	// CollRemoveLink deletes the link From→To.
	CollRemoveLink CollOpKind = 4
)

// CollOp is one observable collection mutation. Replaying the ops of a
// batch in order with ReplayCollOps reproduces the collection state the
// batch left behind: document-index and global-ID assignment are
// append-ordered, so they come out identical.
type CollOp struct {
	Kind   CollOpKind
	Doc    *xmlmodel.Document // CollAddDoc; a snapshot taken at record time, never aliased
	DocIdx int                // CollRemoveDoc
	From   int32              // links
	To     int32
}

// ChangeLog captures everything one maintenance batch did to an Index:
// the collection ops and the cover label deltas, in execution order
// within each stream. The two streams are independent — cover deltas
// carry global IDs and explicit grow sizes, so they never consult the
// collection — which lets recovery replay them against different
// backends (the collection in memory, the cover into a segment-mode
// cover over its sealed base).
type ChangeLog struct {
	Coll  []CollOp
	Cover []twohop.CoverDelta
	// Rebuilt reports that the cover was recomputed from scratch
	// (Rebuild), invalidating the delta streams: the batch must be
	// persisted as a full snapshot, not replayed op by op.
	Rebuilt bool
}

// Empty reports whether the log captured no changes at all.
func (l *ChangeLog) Empty() bool {
	return !l.Rebuilt && len(l.Coll) == 0 && len(l.Cover) == 0
}

// StartRecording begins capturing maintenance effects into a fresh
// ChangeLog and returns it. The index's permanently installed delta
// dispatcher appends cover deltas to the log while it is active —
// across Rebuild's cover swap too — until StopRecording. Not safe to
// combine with concurrent maintenance; callers serialize writes
// already.
func (ix *Index) StartRecording() *ChangeLog {
	log := &ChangeLog{}
	ix.log = log
	return log
}

// StopRecording detaches the current ChangeLog; the log keeps its
// contents.
func (ix *Index) StopRecording() {
	ix.log = nil
}

func (ix *Index) recordColl(op CollOp) {
	if ix.log != nil {
		ix.log.Coll = append(ix.log.Coll, op)
	}
}

// ReplayCollOps applies a recorded collection op stream to a
// collection, without touching any cover — the cover side of the batch
// is replayed separately from its CoverDelta stream.
func ReplayCollOps(c *xmlmodel.Collection, ops []CollOp) error {
	for _, op := range ops {
		switch op.Kind {
		case CollAddDoc:
			c.AddDocument(op.Doc)
		case CollRemoveDoc:
			c.RemoveDocument(op.DocIdx)
		case CollAddLink:
			if err := c.AddLink(op.From, op.To); err != nil {
				return fmt.Errorf("core: replay add-link: %w", err)
			}
		case CollRemoveLink:
			c.RemoveLink(op.From, op.To)
		default:
			return fmt.Errorf("core: replay: unknown collection op kind %d", op.Kind)
		}
	}
	return nil
}
