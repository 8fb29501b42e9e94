package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
		{Kind: twohop.DeltaAddOut, Node: 2147483647, Center: 0, Dist: 4294967295},
		{Kind: twohop.DeltaRemoveIn, Node: 3, Center: 7},
		{Kind: twohop.DeltaRemoveOut, Node: 0, Center: 5},
		{Kind: twohop.DeltaClearAll},
	}
	// 13 bytes per delta after the fixed fields and the collection bytes
	rec := EncodeBatch(1, []byte("coll-payload"), ops)
	if want := RecordHeader + 1 + 8 + 4 + len("coll-payload") + 4 + 13*len(ops); len(rec) != want {
		t.Fatalf("encoded %d bytes, want %d", len(rec), want)
	}
	if _, err := DecodeBatch(rec[:len(rec)-5]); err == nil {
		t.Fatal("truncated delta stream decoded without error")
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
	if recs[0].Seq != 1 || string(recs[0].Coll) != "coll-payload" || !bytes.Equal(recs[0].Raw, rec) {
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
// panic and never a misread batch. On open such a record fails the
// open with its offset and leaves the file alone — it is not a torn
// tail, and truncating it would drop whatever follows.
func TestWALRejectsUnknownRecordKind(t *testing.T) {
	foreign := AppendRecord(nil, append([]byte{0x02}, make([]byte, 12)...))
	if _, err := DecodeBatch(foreign); err == nil {
		t.Fatal("record kind 0x02 decoded without error")
	}
	// a collection length that overflows u32 arithmetic must not index
	// past the payload
	huge := AppendRecord(nil, []byte{recBatch, 1, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	if _, err := DecodeBatch(huge); err == nil {
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
	off := w.Size()
	if err := w.Append(foreign); err != nil {
		t.Fatal(err)
	}
	size := w.Size()
	w.Close()
	_, _, err = OpenWAL(path)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", off)) {
		t.Fatalf("open over a foreign record: err = %v, want one naming offset %d", err, off)
	}
	if st, _ := os.Stat(path); st.Size() != size {
		t.Fatalf("failed open resized the log from %d to %d bytes", size, st.Size())
	}
}

// TestWALMidLogCorruptionFails flips one payload byte of the middle of
// three committed batches. Only a bad record that reaches the end of
// the file is a torn tail; this one has a committed batch behind it, so
// the open must fail with its offset instead of truncating batches 2
// and 3 away.
func TestWALMidLogCorruptionFails(t *testing.T) {
	path := walPath(t)
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var mid int64
	for seq := uint64(1); seq <= 3; seq++ {
		if seq == 2 {
			mid = w.Size()
		}
		if err := w.AppendBatch(seq, []byte("batch"), []twohop.CoverDelta{{Kind: twohop.DeltaAddIn, Node: 1, Center: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	size := w.Size()
	w.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, mid+RecordHeader+10); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, recs, err := OpenWAL(path)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", mid)) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over a corrupt middle record: %d records, err = %v", len(recs), err)
	}
	if st, _ := os.Stat(path); st.Size() != size {
		t.Fatalf("failed open truncated the log from %d to %d bytes", size, st.Size())
	}
}

// TestReadRecordClassifies pins the reader's three failure answers,
// which WAL recovery and the replication follower both act on: a clean
// end, a record cut short, and a damaged one.
func TestReadRecordClassifies(t *testing.T) {
	rec := EncodeBatch(7, []byte("x"), nil)
	got, err := ReadRecord(bytes.NewReader(rec))
	if err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("intact record: %v, %v", got, err)
	}
	if _, err := ReadRecord(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty input: err = %v, want io.EOF", err)
	}
	for _, cut := range []int{3, RecordHeader, len(rec) - 1} {
		if _, err := ReadRecord(bytes.NewReader(rec[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
	flipped := bytes.Clone(rec)
	flipped[len(flipped)-1] ^= 1
	if _, err := ReadRecord(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload: err = %v, want ErrCorrupt", err)
	}
	var zero [RecordHeader]byte
	if _, err := ReadRecord(bytes.NewReader(zero[:])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero length: err = %v, want ErrCorrupt", err)
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

// TestWALCorruptRecordStopsScan: a damaged final record is a torn tail
// (a crash mid-append), dropped on open with the batches before it kept.
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
	// the records come back as the bytes the log holds, ready to ship
	if want := EncodeBatch(5, []byte{5}, recs[2].Ops); !bytes.Equal(recs[2].Raw, want) {
		t.Fatalf("record 5 raw bytes differ from its encoding")
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
