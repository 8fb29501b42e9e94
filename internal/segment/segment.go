// Package segment implements the immutable on-disk storage tier for
// HOPI cover labels: sorted, compressed, CRC-protected segment files
// written in one streaming pass and read through an mmap-backed
// zero-copy reader (with a plain ReadAt fallback on platforms or files
// where mmap is unavailable).
//
// A segment holds two key families, each a sorted sequence of
// (key, postings) records:
//
//	FamLin    node → Lin(node)  cover entries (center, dist, tomb)
//	FamLout   node → Lout(node) cover entries
//
// The labels are the only index: no center→owners inversion is
// stored. Postings are encoded in varint-delta blocks of ~4 KiB with
// one skip entry (family, key range, offset, length, CRC32) per block
// in an index region referenced by a fixed-size footer. Records carry
// no length,
// so Open derives a restart directory per block (key and offset of
// every 4th record, kept in memory only) and a point lookup walks at
// most four records.
//
// Segments are immutable once sealed: the live index layers an
// in-memory delta (adds + tombstones) on top of a stack of segments,
// and a compactor periodically folds the whole stack into one new
// segment, dropping tombstones. Newer layers shadow older ones per
// (key, value) pair.
//
// File layout (all multi-byte fixed-width integers little-endian):
//
//	header : magic "HSEG" (u32) | version (u32)
//	blocks : back-to-back block payloads (see block.go)
//	region : meta | index            (varint-encoded, CRC'd as a unit)
//	footer : regionOff u64 | regionLen u64 | regionCRC u32 | magic u32
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Family identifies one of the two key families in a segment.
type Family uint8

const (
	FamLin  Family = 0 // node → Lin entries
	FamLout Family = 1 // node → Lout entries

	// NumFamilies is the number of key families per segment.
	NumFamilies = 2
)

const (
	magic = 0x47455348 // "HSEG" little-endian
	// version 1 also stored center→owners families and led each list
	// with a container mode byte; Open rejects it.
	version   = 2
	headerLen = 8
	footerLen = 24

	// targetBlockSize is the soft payload size at which the writer cuts
	// a block. Blocks never span families.
	targetBlockSize = 4096
)

// Post is one posting: a center with an optional distance and a
// tombstone flag. Tombstones only appear in non-compacted segments; a
// full compaction drops them.
type Post struct {
	Val  int32
	Dist uint32
	Tomb bool
}

// Rec is one (key, postings) record handed to the writer. Posts must
// be sorted by Val with no duplicates.
type Rec struct {
	Key   int32
	Posts []Post
}

// Meta is the segment-level metadata stored in the footer region.
type Meta struct {
	N        int    // node-id space covered (cover length)
	WithDist bool   // distance-aware labels
	Seq      uint64 // WAL sequence the segment state reflects
	// Posts and Tombs count label postings for live-size accounting.
	Posts int64
	Tombs int64
}

// ErrCorrupt wraps all decode failures: bad magic, short files,
// truncated blocks, CRC mismatches, malformed varints.
var ErrCorrupt = errors.New("segment: corrupt file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// blockEntry is one skip-index entry describing a block.
type blockEntry struct {
	fam      Family
	firstKey int32
	lastKey  int32
	nKeys    int
	off      int64
	length   int
	crc      uint32
	// restarts is the block's restart directory: record 0 and every
	// restartEvery-th record after it, so a point lookup
	// binary-searches keys and then walks at most restartEvery records
	// (findInBlock). It is derived at Open by the pass that verifies the
	// block and is not part of the file: an offset per record on disk
	// would add 5% to a sealed store, whose size per label is what it is
	// judged by; 8 bytes per restartEvery records of heap are as many
	// bytes, beside a decode cache many times that.
	restarts []restart
}

// restartEvery is the spacing of restart points within a block.
const restartEvery = 4

// restart locates one record in a block payload: its key and the
// offset of its postings.
type restart struct {
	key int32
	off uint32
}

// uvarint reads one unsigned varint from b at position i, returning
// the value and the new position; ok=false on malformed or truncated
// input. Unlike binary.Uvarint it never reads past len(b).
func uvarint(b []byte, i int) (uint64, int, bool) {
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, i, false
	}
	return v, i + n, true
}

func putUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}
