package storage

import (
	"os"
	"path/filepath"
	"testing"

	"hopi/internal/twohop"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func TestWALBatchRoundTrip(t *testing.T) {
	path := walPath(t)
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL has %d records", len(recs))
	}
	ops := []twohop.CoverDelta{
		{Kind: twohop.DeltaGrow, Node: 42},
		{Kind: twohop.DeltaAddIn, Node: 3, Center: 7, Dist: 2},
		{Kind: twohop.DeltaAddOut, Node: -1 & 0x7fffffff, Center: 0, Dist: 0},
		{Kind: twohop.DeltaRemoveIn, Node: 3, Center: 7},
		{Kind: twohop.DeltaClearAll},
	}
	if err := w.AppendBatch(1, []byte("coll-payload"), ops); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(2, nil, nil); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Seq != 1 || string(recs[0].Coll) != "coll-payload" {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if len(recs[0].Ops) != len(ops) {
		t.Fatalf("got %d ops, want %d", len(recs[0].Ops), len(ops))
	}
	for i, op := range recs[0].Ops {
		if op != ops[i] {
			t.Fatalf("op %d = %+v, want %+v", i, op, ops[i])
		}
	}
	if recs[1].Seq != 2 || recs[1].Coll != nil || len(recs[1].Ops) != 0 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
}

// TestWALRejectsUnknownRecordKind pins the decoder's answer to a
// CRC-valid record of a kind it does not know (0x02 was the page-image
// checkpoint record of the retired page store): an error, never a
// panic and never a misread batch. On open such a record ends the
// scan like any other undecodable tail.
func TestWALRejectsUnknownRecordKind(t *testing.T) {
	foreign := append([]byte{0x02}, make([]byte, 12)...)
	if _, err := decodeWALPayload(foreign); err == nil {
		t.Fatal("record kind 0x02 decoded without error")
	}
	// a collection length that overflows u32 arithmetic must not index
	// past the payload
	huge := []byte{walRecBatch, 1, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := decodeWALPayload(huge); err == nil {
		t.Fatal("oversized collection length decoded without error")
	}

	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(1, []byte("ok"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.append(foreign); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("got %d records, want the one batch before the foreign record", len(recs))
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w.AppendBatch(seq, nil, []twohop.CoverDelta{{Kind: twohop.DeltaAddIn, Node: 1, Center: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	size := w.Size()
	w.Close()

	for _, chop := range []int64{1, 5, 12} {
		if err := os.Truncate(path, size-chop); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("chop %d: got %d records, want 2", chop, len(recs))
		}
		// the torn tail was truncated away; appends restart cleanly
		if err := w2.AppendBatch(3, nil, nil); err != nil {
			t.Fatal(err)
		}
		_, recs2, err := OpenWAL(path) // reopen again to check
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != 3 || recs2[2].Seq != 3 {
			t.Fatalf("chop %d: after re-append got %d records", chop, len(recs2))
		}
		size = w2.Size()
		w2.Close()
	}
}

func TestWALCorruptRecordStopsScan(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(1, []byte("ok"), nil); err != nil {
		t.Fatal(err)
	}
	mid := w.Size()
	if err := w.AppendBatch(2, []byte("to-corrupt"), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// flip a payload byte of the second record
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, mid+8+10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("CRC mismatch not detected: %d records", len(recs))
	}
}

func TestWALReset(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if w.Empty() {
		t.Fatal("WAL empty after append")
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if !w.Empty() || w.Size() != 0 {
		t.Fatal("Reset left data behind")
	}
	w.Close()
	_, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records after reset", len(recs))
	}
}

// TestWALBatchesFrom covers the replication publisher's lagging-
// follower fallback: the log serves contiguous batch runs from any
// covered sequence and reports non-coverage (after checkpoints and
// resets) instead of gapped replays.
func TestWALBatchesFrom(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// an empty log covers nothing
	if _, ok, err := w.BatchesFrom(1); err != nil || ok {
		t.Fatalf("empty log: ok=%v err=%v", ok, err)
	}

	for seq := uint64(3); seq <= 7; seq++ {
		ops := []twohop.CoverDelta{{Kind: twohop.DeltaAddIn, Node: int32(seq), Center: 1, Dist: 1}}
		if err := w.AppendBatch(seq, []byte{byte(seq)}, ops); err != nil {
			t.Fatal(err)
		}
	}
	recs, ok, err := w.BatchesFrom(3)
	if err != nil || !ok {
		t.Fatalf("BatchesFrom(3): ok=%v err=%v", ok, err)
	}
	if len(recs) != 5 || recs[0].Seq != 3 || recs[4].Seq != 7 {
		t.Fatalf("BatchesFrom(3) = %d records [%d..%d], want 5 [3..7]", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
	if string(recs[2].Coll) != string([]byte{5}) {
		t.Fatalf("record 5 coll payload = %v", recs[2].Coll)
	}

	recs, ok, err = w.BatchesFrom(6)
	if err != nil || !ok || len(recs) != 2 {
		t.Fatalf("BatchesFrom(6): %d records ok=%v err=%v, want 2", len(recs), ok, err)
	}

	// sequences the log does not start at are not covered (1, 2), and
	// neither are future ones (8): the caller must fall back to a
	// snapshot image, never replay a gapped stream
	for _, from := range []uint64{1, 2, 8} {
		if _, ok, err := w.BatchesFrom(from); err != nil || ok {
			t.Fatalf("BatchesFrom(%d): ok=%v err=%v, want not covered", from, ok, err)
		}
	}

	// after a reset (checkpoint) nothing is covered anymore
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := w.BatchesFrom(3); ok {
		t.Fatal("reset log still covers batches")
	}
}
