package segment

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
)

// Writer streams a segment to disk in one pass: callers append
// records family by family (families ascending, keys strictly
// ascending within a family); Finish writes the index region and
// footer. The writer never buffers more than one block.
type Writer struct {
	w   *bufio.Writer
	off int64 // file offset of the next block byte

	block    []byte // current block payload under construction
	blockFam Family
	first    int32 // first key of current block
	last     int32 // last key appended to current block
	nKeys    int

	started  bool
	haveFam  [NumFamilies]bool
	lastKey  [NumFamilies]int32
	index    []blockEntry
	posts    int64 // label posts
	tombs    int64
	finished bool
	err      error
}

// NewWriter starts a segment stream on w. The caller owns w; for
// files use WriteFile which also handles fsync+rename.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, off: headerLen}, nil
}

// Append adds one record. Families must arrive in ascending order and
// keys strictly ascending within a family; posts sorted by Val with no
// duplicates. Empty posts are skipped.
func (sw *Writer) Append(fam Family, key int32, posts []Post) error {
	if sw.err != nil {
		return sw.err
	}
	if len(posts) == 0 {
		return nil
	}
	if sw.started && (fam < sw.blockFam || (sw.haveFam[fam] && key <= sw.lastKey[fam])) {
		sw.err = corruptf("writer: out-of-order append fam=%d key=%d", fam, key)
		return sw.err
	}
	if sw.started && (fam != sw.blockFam || len(sw.block) >= targetBlockSize) {
		if err := sw.flushBlock(); err != nil {
			return err
		}
	}
	if sw.nKeys == 0 {
		sw.blockFam = fam
		sw.first = key
	} else {
		sw.block = putUvarint(sw.block, uint64(key-sw.last))
	}
	sw.block = appendPostings(sw.block, posts)
	sw.last = key
	sw.nKeys++
	sw.started = true
	sw.haveFam[fam] = true
	sw.lastKey[fam] = key
	for _, p := range posts {
		if p.Tomb {
			sw.tombs++
		} else {
			sw.posts++
		}
	}
	return nil
}

func (sw *Writer) flushBlock() error {
	if sw.nKeys == 0 {
		return nil
	}
	e := blockEntry{
		fam:      sw.blockFam,
		firstKey: sw.first,
		lastKey:  sw.last,
		nKeys:    sw.nKeys,
		off:      sw.off,
		length:   len(sw.block),
		crc:      crc32.ChecksumIEEE(sw.block),
	}
	if _, err := sw.w.Write(sw.block); err != nil {
		sw.err = err
		return err
	}
	sw.off += int64(len(sw.block))
	sw.index = append(sw.index, e)
	sw.block = sw.block[:0]
	sw.nKeys = 0
	return nil
}

// Finish flushes the last block and writes the meta+index region and
// footer. Meta.Posts/Tombs are filled in by the writer.
func (sw *Writer) Finish(meta Meta) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.finished {
		return corruptf("writer: double Finish")
	}
	sw.finished = true
	if err := sw.flushBlock(); err != nil {
		return err
	}
	meta.Posts, meta.Tombs = sw.posts, sw.tombs

	region := make([]byte, 0, 64+len(sw.index)*16)
	region = append(region, version)
	region = putUvarint(region, uint64(meta.N))
	if meta.WithDist {
		region = append(region, 1)
	} else {
		region = append(region, 0)
	}
	region = putUvarint(region, meta.Seq)
	region = putUvarint(region, uint64(meta.Posts))
	region = putUvarint(region, uint64(meta.Tombs))
	region = putUvarint(region, uint64(len(sw.index)))
	for _, e := range sw.index {
		region = append(region, byte(e.fam))
		region = putUvarint(region, uint64(e.firstKey))
		region = putUvarint(region, uint64(e.lastKey))
		region = putUvarint(region, uint64(e.nKeys))
		region = putUvarint(region, uint64(e.off))
		region = putUvarint(region, uint64(e.length))
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], e.crc)
		region = append(region, crc[:]...)
	}
	if _, err := sw.w.Write(region); err != nil {
		sw.err = err
		return err
	}
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(sw.off))
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(region)))
	binary.LittleEndian.PutUint32(foot[16:], crc32.ChecksumIEEE(region))
	binary.LittleEndian.PutUint32(foot[20:], magic)
	if _, err := sw.w.Write(foot[:]); err != nil {
		sw.err = err
		return err
	}
	return sw.w.Flush()
}

// WriteFile streams a segment to path atomically: it writes
// path+".tmp", fsyncs, and renames into place. emit is called with
// the writer to append all records; WriteFile calls Finish.
func WriteFile(path string, meta Meta, emit func(*Writer) error) (size int64, err error) {
	return writeAtomic(path, func(f *os.File) error {
		sw, err := NewWriter(f)
		if err != nil {
			return err
		}
		if err := emit(sw); err != nil {
			return err
		}
		return sw.Finish(meta)
	})
}

// writeAtomic creates path+".tmp", fills it with write, fsyncs it and
// renames it to path, so the file is whole and durable under its name
// before anything can reference it (syncing the directory entry is
// the caller's). It returns the file's size; on error it removes the
// temp file.
func writeAtomic(path string, write func(*os.File) error) (size int64, err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return st.Size(), nil
}
