package replication

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"

	"hopi/internal/storage"
	"hopi/internal/twohop"
)

// FuzzStreamRecord feeds arbitrary bytes to the follower's reading of
// the stream: records through storage.ReadRecord, image headers through
// readImage and its chunks. Nothing may panic, allocation must follow
// the bytes supplied rather than any length a record declares, and
// every record the reader accepts must re-encode to identical bytes —
// by the framing alone and, where its kind decodes, through the kind's
// own encoder.
func FuzzStreamRecord(f *testing.F) {
	old := imageChunk
	imageChunk = 8
	var stream bytes.Buffer
	stream.Write(heartbeat(42))
	writeImage(&stream, &Image{
		Seq: 3, Scope: 9, WithDist: true, Coll: []byte("collection"), N: 12, Live: 40,
		Ops:   []twohop.CoverDelta{{Kind: twohop.DeltaAddIn, Node: 1, Center: 2, Dist: 3}},
		Files: []SegFile{{Name: "000001.seg", Data: []byte("sealed segment bytes")}},
	})
	stream.Write(storage.EncodeBatch(4, []byte("coll"), []twohop.CoverDelta{{Kind: twohop.DeltaGrow, Node: 7}}))
	stream.Write(record(kindError, []byte("primary failed")))
	imageChunk = old
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:len(stream.Bytes())/2])
	f.Add([]byte{})
	f.Add(storage.AppendRecord(nil, []byte{0x7f}))
	// a header declaring a full 64 MiB payload with one byte behind it
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		r := bufio.NewReader(bytes.NewReader(data))
		var recs [][]byte
		for {
			rec, err := storage.ReadRecord(r)
			if err != nil {
				break
			}
			recs = append(recs, rec)
			if rec[storage.RecordHeader] == kindImage {
				readImage(rec, r)
			}
		}
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > 8*uint64(len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), alloc)
		}

		for _, rec := range recs {
			if !bytes.Equal(storage.AppendRecord(nil, rec[storage.RecordHeader:]), rec) {
				t.Fatalf("record %x re-frames differently", rec)
			}
			var again []byte
			switch rec[storage.RecordHeader] {
			case kindHeartbeat:
				if seq, err := decodeHeartbeat(rec); err == nil {
					again = heartbeat(seq)
				}
			case kindImage:
				if h, err := decodeImageHeader(rec); err == nil {
					again = storage.AppendRecord(nil, h.payload())
				}
			default:
				if b, err := storage.DecodeBatch(rec); err == nil {
					again = storage.EncodeBatch(b.Seq, b.Coll, b.Ops)
				}
			}
			if again != nil && !bytes.Equal(again, rec) {
				t.Fatalf("record %x re-encodes as %x", rec, again)
			}
		}
	})
}
