package segment

import "slices"

// Block payload encoding. A block holds 1..n consecutive records of a
// single family:
//
//	record[0]  : postings                    (key = index entry firstKey)
//	record[i>0]: keyDelta uvarint (≥1) | postings
//
//	postings   : count uvarint, then per post
//	             valDelta uvarint (≥1, vals ascending from -1)
//	             meta uvarint = dist<<1 | tomb

// appendPostings encodes one posting list onto dst.
func appendPostings(dst []byte, posts []Post) []byte {
	dst = putUvarint(dst, uint64(len(posts)))
	prev := int32(-1)
	for _, p := range posts {
		dst = putUvarint(dst, uint64(p.Val-prev))
		meta := uint64(p.Dist) << 1
		if p.Tomb {
			meta |= 1
		}
		dst = putUvarint(dst, meta)
		prev = p.Val
	}
	return dst
}

// decodePostings decodes one posting list from b at position i,
// appending to dst (which may be nil). Returns the extended slice and
// the new position; ok=false on malformed input.
func decodePostings(b []byte, i int, dst []Post) ([]Post, int, bool) {
	cnt, i, ok := uvarint(b, i)
	if !ok || cnt > uint64(len(b)) { // each post needs ≥2 bytes
		return nil, i, false
	}
	dst = slices.Grow(dst, int(cnt)) // one growth, not a chain of them
	prev := int64(-1)
	for k := uint64(0); k < cnt; k++ {
		d, j, ok := uvarint(b, i)
		if !ok || d == 0 {
			return nil, i, false
		}
		i = j
		meta, j2, ok := uvarint(b, i)
		if !ok {
			return nil, i, false
		}
		i = j2
		v := prev + int64(d)
		if v > 1<<31-1 {
			return nil, i, false
		}
		prev = v
		dst = append(dst, Post{
			Val:  int32(v),
			Dist: uint32(meta >> 1),
			Tomb: meta&1 != 0,
		})
	}
	return dst, i, true
}

// decodeBlock walks every record of a block payload, invoking fn for
// each (key, postings) pair in order; off is where the record's
// postings start in b. It never panics on corrupt input; any
// structural violation returns an error. The posts slice passed to fn
// is only valid during the call.
func decodeBlock(b []byte, e blockEntry, fn func(key int32, off int, posts []Post) error) error {
	i := 0
	key := e.firstKey
	var scratch []Post
	for k := 0; k < e.nKeys; k++ {
		if k > 0 {
			d, j, ok := uvarint(b, i)
			if !ok || d == 0 {
				return corruptf("block key delta at %d", i)
			}
			i = j
			nk := int64(key) + int64(d)
			if nk > 1<<31-1 {
				return corruptf("block key overflow")
			}
			key = int32(nk)
		}
		off := i
		var ok bool
		scratch, i, ok = decodePostings(b, i, scratch[:0])
		if !ok {
			return corruptf("block postings for key %d", key)
		}
		if err := fn(key, off, scratch); err != nil {
			return err
		}
	}
	if i != len(b) {
		return corruptf("block trailing bytes: %d of %d consumed", i, len(b))
	}
	if key != e.lastKey {
		return corruptf("block last key %d, index says %d", key, e.lastKey)
	}
	return nil
}

// indexBlock verifies a block payload structurally and appends its
// restart directory (blockEntry.restarts) to dir.
func indexBlock(b []byte, e blockEntry, dir []restart) ([]restart, error) {
	k := 0
	err := decodeBlock(b, e, func(key int32, off int, _ []Post) error {
		if k%restartEvery == 0 {
			dir = append(dir, restart{key: key, off: uint32(off)})
		}
		k++
		return nil
	})
	return dir, err
}

// findInBlock looks one key up in a block payload, appending its posts
// to dst: a binary search of the block's restart directory for the last
// restart at or before want, then a walk of at most restartEvery
// records. found=false when the key is absent; ok=false on corruption;
// scanned is the number of records the walk looked at.
func findInBlock(b []byte, e blockEntry, want int32, dst []Post) (res []Post, found bool, scanned int, ok bool) {
	lo, hi := 0, len(e.restarts) // → first restart past want
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); e.restarts[m].key <= want {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return dst, false, 0, true
	}
	key, i := e.restarts[lo-1].key, int(e.restarts[lo-1].off)
	end := min(lo*restartEvery, e.nKeys)
	for k := (lo - 1) * restartEvery; k < end; k++ {
		scanned++
		if key == want {
			res, _, okv := decodePostings(b, i, dst)
			return res, okv, scanned, okv
		}
		if key > want || k+1 == end {
			break
		}
		var okv bool
		if i, okv = skipPostings(b, i); !okv {
			return dst, false, scanned, false
		}
		d, j, okv := uvarint(b, i)
		if !okv || d == 0 || int64(key)+int64(d) > 1<<31-1 {
			return dst, false, scanned, false
		}
		key, i = key+int32(d), j
	}
	return dst, false, scanned, true
}

// skipPostings advances past one posting list without decoding values.
func skipPostings(b []byte, i int) (int, bool) {
	cnt, i, ok := uvarint(b, i)
	if !ok || cnt > uint64(len(b)) {
		return i, false
	}
	for k := uint64(0); k < cnt; k++ {
		var d uint64
		if d, i, ok = uvarint(b, i); !ok || d == 0 { // as decodePostings rejects
			return i, false
		}
		if _, i, ok = uvarint(b, i); !ok {
			return i, false
		}
	}
	return i, true
}
