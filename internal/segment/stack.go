package segment

// Stack is an immutable ordered list of segments, oldest first.
// Reads fold the segments newest-wins per (key, value): a posting in
// a newer segment (including a tombstone) shadows the same value in
// any older one. Stacks are value snapshots — sealing or compacting
// produces a new Stack; existing references keep reading the old one.
type Stack struct {
	Segs []*Segment // oldest → newest
}

// Push returns a new stack with seg appended as the newest layer.
func (st *Stack) Push(seg *Segment) *Stack {
	segs := make([]*Segment, len(st.Segs)+1)
	copy(segs, st.Segs)
	segs[len(st.Segs)] = seg
	return &Stack{Segs: segs}
}

// mergePatch overlays newer on older (both sorted by Val, no dups):
// per value the newer post wins; values unique to either survive.
func mergePatch(older, newer []Post, dst []Post) []Post {
	i, j := 0, 0
	for i < len(older) && j < len(newer) {
		switch {
		case older[i].Val < newer[j].Val:
			dst = append(dst, older[i])
			i++
		case older[i].Val > newer[j].Val:
			dst = append(dst, newer[j])
			j++
		default:
			dst = append(dst, newer[j])
			i++
			j++
		}
	}
	dst = append(dst, older[i:]...)
	dst = append(dst, newer[j:]...)
	return dst
}

// Live appends the folded posting list for (fam, key) to dst,
// tombstones dropped, and returns how many block records the lookups
// walked. A key held by one segment only — nearly every key: the layers
// above the bottom one are small — decodes straight into dst; only a
// key that several layers hold pays for a merge.
func (st *Stack) Live(fam Family, key int32, dst []Post) (res []Post, scanned int, err error) {
	base := len(dst)
	var newer []Post
	for _, s := range st.Segs {
		first := len(dst) == base // nothing found yet: decode in place
		into := newer[:0]
		if first {
			into = dst
		}
		posts, found, n, err := s.Posts(fam, key, into)
		scanned += n
		if err != nil {
			return dst[:base], scanned, err
		}
		if first {
			dst = posts
			continue
		}
		newer = posts
		if found {
			merged := mergePatch(dst[base:], newer, make([]Post, 0, len(dst)-base+len(newer)))
			dst = append(dst[:base], merged...)
		}
	}
	out := dst[:base]
	for _, p := range dst[base:] {
		if !p.Tomb {
			out = append(out, p)
		}
	}
	return out, scanned, nil
}

// Iter walks the folded view of a family in key order, newest-wins,
// tombstones retained (pass dropTombs to filter). The posts slice is
// reused across calls.
func (st *Stack) Iter(fam Family, dropTombs bool, fn func(key int32, posts []Post) error) error {
	cursors := make([]*cursor, 0, len(st.Segs))
	for _, s := range st.Segs {
		c := newCursor(s, fam)
		if c.next() {
			cursors = append(cursors, c)
		} else if c.err != nil {
			return c.err
		}
	}
	var acc, swap []Post
	for len(cursors) > 0 {
		// min key among active cursors
		min := cursors[0].key
		for _, c := range cursors[1:] {
			if c.key < min {
				min = c.key
			}
		}
		// fold oldest→newest (cursors keep stack order)
		acc = acc[:0]
		first := true
		for _, c := range cursors {
			if c.key != min {
				continue
			}
			if first {
				acc = append(acc, c.posts...)
				first = false
			} else {
				swap = mergePatch(acc, c.posts, swap[:0])
				acc, swap = swap, acc
			}
		}
		out := acc
		if dropTombs {
			out = acc[:0]
			for _, p := range acc {
				if !p.Tomb {
					out = append(out, p)
				}
			}
		}
		if len(out) > 0 {
			if err := fn(min, out); err != nil {
				return err
			}
		}
		// advance all cursors positioned at min
		kept := cursors[:0]
		for _, c := range cursors {
			if c.key == min {
				if !c.next() {
					if c.err != nil {
						return c.err
					}
					continue
				}
			}
			kept = append(kept, c)
		}
		cursors = kept
	}
	return nil
}

// cursor steps through one family of one segment record by record.
type cursor struct {
	s      *Segment
	blocks []blockEntry
	bi     int    // next block to load
	b      []byte // current block payload
	buf    []byte // fallback-mode read buffer
	i      int    // byte position in b
	k      int    // records consumed from current block
	key    int32
	posts  []Post
	err    error
}

func newCursor(s *Segment, fam Family) *cursor {
	return &cursor{s: s, blocks: s.fams[fam]}
}

// next advances to the following record; false at end or on error.
func (c *cursor) next() bool {
	if c.err != nil {
		return false
	}
	for c.b == nil || c.k >= c.blocks[c.bi-1].nKeys {
		if c.bi >= len(c.blocks) {
			return false
		}
		e := c.blocks[c.bi]
		b, err := c.s.readRange(e.off, e.length, c.buf)
		if err != nil {
			c.err = err
			return false
		}
		if c.s.f != nil {
			c.buf = b
		}
		c.b, c.i, c.k = b, 0, 0
		c.bi++
	}
	e := c.blocks[c.bi-1]
	if c.k == 0 {
		c.key = e.firstKey
	} else {
		d, j, ok := uvarint(c.b, c.i)
		if !ok || d == 0 {
			c.err = corruptf("%s: cursor key delta", c.s.path)
			return false
		}
		c.i = j
		c.key += int32(d)
	}
	var ok bool
	c.posts, c.i, ok = decodePostings(c.b, c.i, c.posts[:0])
	if !ok {
		c.err = corruptf("%s: cursor postings for key %d", c.s.path, c.key)
		return false
	}
	c.k++
	return true
}
