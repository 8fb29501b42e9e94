package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
)

// forceFallback disables mmap for newly opened segments (tests only;
// Open falls back on its own when mmapFile fails).
var forceFallback atomic.Bool

// Segment is an open, validated, immutable segment file. Reads are
// zero-copy from the mmap'd file where supported, or per-block ReadAt
// otherwise. Segments are safe for concurrent use and are reclaimed
// by a finalizer once unreachable — deleting the file on disk while a
// Segment (or a snapshot holding one) is alive is safe on Linux: the
// mapping and the open descriptor keep the bytes readable.
type Segment struct {
	path string
	size int64
	data []byte   // whole file when mmapped, else nil
	f    *os.File // retained only in fallback mode
	meta Meta
	fams [NumFamilies][]blockEntry // each sorted by firstKey
}

// Open maps and validates a segment file: header and footer magic,
// index-region CRC, and every block CRC (one sequential pass). A nil
// error guarantees all later reads decode without corruption errors
// barring in-place file damage.
func Open(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Segment{path: path, size: st.Size()}
	if !forceFallback.Load() {
		if b, err := mmapFile(f, st.Size()); err == nil {
			s.data = b
			f.Close() // the mapping outlives the descriptor
		} else {
			s.f = f
		}
	} else {
		s.f = f
	}
	runtime.SetFinalizer(s, (*Segment).release)
	if err := s.load(); err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

func (s *Segment) release() {
	runtime.SetFinalizer(s, nil)
	if s.data != nil {
		munmapFile(s.data)
		s.data = nil
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// readRange returns length bytes at off: a subslice of the mapping,
// or a read into scratch in fallback mode.
func (s *Segment) readRange(off int64, length int, scratch []byte) ([]byte, error) {
	if off < 0 || length < 0 || off+int64(length) > s.size {
		return nil, corruptf("%s: range [%d,+%d) outside file of %d bytes", s.path, off, length, s.size)
	}
	if s.data != nil {
		return s.data[off : off+int64(length)], nil
	}
	if cap(scratch) < length {
		scratch = make([]byte, length)
	}
	scratch = scratch[:length]
	if _, err := s.f.ReadAt(scratch, off); err != nil {
		return nil, err
	}
	return scratch, nil
}

func (s *Segment) load() error {
	if s.size < headerLen+footerLen {
		return corruptf("%s: %d bytes, shorter than header+footer", s.path, s.size)
	}
	hdr, err := s.readRange(0, headerLen, nil)
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return corruptf("%s: bad header magic", s.path)
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:]); v {
	case version:
	case 1:
		return fmt.Errorf("segment: %s is a version-1 segment, which also stored owner postings, a format no longer read; the index is derived data: rebuild with hopibuild", s.path)
	default:
		return corruptf("%s: unsupported version %d", s.path, v)
	}
	foot, err := s.readRange(s.size-footerLen, footerLen, nil)
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(foot[20:]) != magic {
		return corruptf("%s: bad footer magic", s.path)
	}
	regionOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	regionLen := int64(binary.LittleEndian.Uint64(foot[8:]))
	if regionOff < headerLen || regionLen < 0 || regionOff+regionLen != s.size-footerLen {
		return corruptf("%s: footer region [%d,+%d) inconsistent with size %d", s.path, regionOff, regionLen, s.size)
	}
	region, err := s.readRange(regionOff, int(regionLen), nil)
	if err != nil {
		return err
	}
	if crc32.ChecksumIEEE(region) != binary.LittleEndian.Uint32(foot[16:]) {
		return corruptf("%s: index region CRC mismatch", s.path)
	}
	if err := s.parseRegion(region, regionOff); err != nil {
		return err
	}
	return s.verifyBlocks()
}

func (s *Segment) parseRegion(region []byte, regionOff int64) error {
	i := 0
	if len(region) < 2 || region[0] != version {
		return corruptf("%s: bad region version", s.path)
	}
	i++
	n, i, ok := uvarint(region, i)
	if !ok || n > 1<<31 {
		return corruptf("%s: region n", s.path)
	}
	s.meta.N = int(n)
	if i >= len(region) {
		return corruptf("%s: region truncated", s.path)
	}
	s.meta.WithDist = region[i] == 1
	i++
	var v uint64
	if v, i, ok = uvarint(region, i); !ok {
		return corruptf("%s: region seq", s.path)
	}
	s.meta.Seq = v
	if v, i, ok = uvarint(region, i); !ok || v > 1<<62 {
		return corruptf("%s: region posts", s.path)
	}
	s.meta.Posts = int64(v)
	if v, i, ok = uvarint(region, i); !ok || v > 1<<62 {
		return corruptf("%s: region tombs", s.path)
	}
	s.meta.Tombs = int64(v)
	nBlocks, i, ok := uvarint(region, i)
	if !ok || nBlocks > uint64(s.size)/1+1 {
		return corruptf("%s: region block count", s.path)
	}
	prevEnd := int64(headerLen)
	for b := uint64(0); b < nBlocks; b++ {
		if i >= len(region) {
			return corruptf("%s: index entry %d truncated", s.path, b)
		}
		fam := Family(region[i])
		i++
		if fam >= NumFamilies {
			return corruptf("%s: index entry %d family %d", s.path, b, fam)
		}
		var first, last, nKeys, off, length uint64
		if first, i, ok = uvarint(region, i); !ok || first > 1<<31-1 {
			return corruptf("%s: index entry %d firstKey", s.path, b)
		}
		if last, i, ok = uvarint(region, i); !ok || last > 1<<31-1 || last < first {
			return corruptf("%s: index entry %d lastKey", s.path, b)
		}
		if nKeys, i, ok = uvarint(region, i); !ok || nKeys == 0 || nKeys > uint64(s.size) {
			return corruptf("%s: index entry %d nKeys", s.path, b)
		}
		if off, i, ok = uvarint(region, i); !ok {
			return corruptf("%s: index entry %d offset", s.path, b)
		}
		if length, i, ok = uvarint(region, i); !ok {
			return corruptf("%s: index entry %d length", s.path, b)
		}
		if i+4 > len(region) {
			return corruptf("%s: index entry %d crc truncated", s.path, b)
		}
		crc := binary.LittleEndian.Uint32(region[i:])
		i += 4
		e := blockEntry{
			fam: fam, firstKey: int32(first), lastKey: int32(last),
			nKeys: int(nKeys), off: int64(off), length: int(length), crc: crc,
		}
		// Blocks must tile [headerLen, regionOff) in order.
		if e.off != prevEnd || e.off+int64(e.length) > regionOff {
			return corruptf("%s: index entry %d range [%d,+%d) out of place", s.path, b, e.off, e.length)
		}
		prevEnd = e.off + int64(e.length)
		if n := len(s.fams[fam]); n > 0 && s.fams[fam][n-1].lastKey >= e.firstKey {
			return corruptf("%s: family %d blocks out of order", s.path, fam)
		}
		s.fams[fam] = append(s.fams[fam], e)
	}
	if i != len(region) {
		return corruptf("%s: region trailing bytes", s.path)
	}
	if prevEnd != regionOff {
		return corruptf("%s: blocks end at %d, region starts at %d", s.path, prevEnd, regionOff)
	}
	return nil
}

// verifyBlocks CRC-checks and structurally decodes every block in one
// sequential pass, so post-Open reads cannot hit corruption, and notes
// each block's restart directory on the way.
func (s *Segment) verifyBlocks() error {
	// One slab holds every block's directory. A record takes at least a
	// byte, which bounds the slab by the file size whatever the index
	// region claims; directory offsets are 32-bit.
	total := 0
	for fam := range s.fams {
		for _, e := range s.fams[fam] {
			if e.nKeys > e.length || uint64(e.length) > math.MaxUint32 {
				return corruptf("%s: block at %d: %d records in %d bytes", s.path, e.off, e.nKeys, e.length)
			}
			total += (e.nKeys + restartEvery - 1) / restartEvery
		}
	}
	slab := make([]restart, 0, total)
	var scratch []byte
	for fam := range s.fams {
		for bi := range s.fams[fam] {
			e := &s.fams[fam][bi]
			b, err := s.readRange(e.off, e.length, scratch)
			if err != nil {
				return err
			}
			scratch = b[:0:0] // keep capacity only in fallback mode
			if s.f != nil {
				scratch = b
			}
			if crc32.ChecksumIEEE(b) != e.crc {
				return corruptf("%s: block at %d CRC mismatch", s.path, e.off)
			}
			start := len(slab)
			if slab, err = indexBlock(b, *e, slab); err != nil {
				return err
			}
			e.restarts = slab[start:len(slab):len(slab)]
		}
	}
	return nil
}

// Meta returns the segment metadata.
func (s *Segment) Meta() Meta { return s.meta }

// SizeBytes returns the on-disk file size.
func (s *Segment) SizeBytes() int64 { return s.size }

// Mmapped reports whether the segment reads through a memory mapping
// (false: ReadAt fallback).
func (s *Segment) Mmapped() bool { return s.data != nil }

// Path returns the file path the segment was opened from.
func (s *Segment) Path() string { return s.path }

// Bytes returns the raw file contents. In mmap mode this is the
// mapping itself (zero-copy); in fallback mode the file is read.
// Used to ship sealed segments to followers verbatim.
func (s *Segment) Bytes() ([]byte, error) {
	if s.data != nil {
		return s.data, nil
	}
	return os.ReadFile(s.path)
}

// Posts appends the posting list for (fam, key) to dst. found=false
// when the segment has no record for the key; scanned is the number of
// block records the lookup walked.
func (s *Segment) Posts(fam Family, key int32, dst []Post) (res []Post, found bool, scanned int, err error) {
	blocks := s.fams[fam]
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].lastKey >= key })
	if i == len(blocks) || blocks[i].firstKey > key {
		return dst, false, 0, nil
	}
	e := blocks[i]
	b, err := s.readRange(e.off, e.length, nil)
	if err != nil {
		return dst, false, 0, err
	}
	res, found, scanned, ok := findInBlock(b, e, key, dst)
	if !ok {
		return dst, false, scanned, corruptf("%s: block at %d", s.path, e.off)
	}
	return res, found, scanned, nil
}

// Iter walks every (key, postings) record of a family in key order.
// The posts slice is reused across calls.
func (s *Segment) Iter(fam Family, fn func(key int32, posts []Post) error) error {
	rec := func(key int32, _ int, posts []Post) error { return fn(key, posts) }
	var scratch []byte
	for _, e := range s.fams[fam] {
		b, err := s.readRange(e.off, e.length, scratch)
		if err != nil {
			return err
		}
		if s.f != nil {
			scratch = b
		}
		if err := decodeBlock(b, e, rec); err != nil {
			return err
		}
	}
	return nil
}
