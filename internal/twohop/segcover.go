package twohop

import (
	"sort"
	"sync"
	"sync/atomic"

	"hopi/internal/segment"
)

// Base is the sealed, immutable layer beneath a segment-mode Cover
// and PostingIndex: a stack of on-disk segments read through mmap.
// A Base is a value snapshot — sealing or compacting installs a new
// Base (see Cover.SealSwap); existing snapshots keep theirs.
//
// Reads decode varint blocks on every lookup, so the Base keeps a
// bounded read-through cache of decoded lists (immutability makes it
// trivially coherent; it is dropped wholesale with the Base on seal or
// compaction). The cache stores empty results too — the query engine
// probes far more absent keys than present ones.
//
// Decode errors after a successful open are effectively impossible
// (every block is CRC-verified at open and the mapping is immutable);
// if one occurs anyway the affected list reads as empty and Errors
// counts it, rather than poisoning the query path with panics.
type Base struct {
	stack *segment.Stack
	stats *baseStats

	mu     sync.RWMutex
	labelC map[uint64][]Entry // (fam,key) → merged live entries
	ownerC map[uint64][]int32 // (fam,key) → merged live owners
}

// baseStats are a Base's read counters. A Base that replaces another
// under the same cover takes over its counters (Cover.setBase), so the
// totals keep growing across seals and compactions.
type baseStats struct {
	errs    atomic.Uint64
	misses  atomic.Uint64 // decode-cache misses
	scanned atomic.Uint64 // block records walked to serve them
}

// baseCacheMax bounds each decoded-list cache; on overflow the map is
// cleared rather than evicted piecemeal (immutable source, refilling
// is cheap and the common working set is far smaller).
const baseCacheMax = 1 << 15

// NewBase wraps a sealed segment stack.
func NewBase(st *segment.Stack) *Base {
	return &Base{
		stack:  st,
		stats:  new(baseStats),
		labelC: make(map[uint64][]Entry),
		ownerC: make(map[uint64][]int32),
	}
}

func cacheKey(fam segment.Family, v int32) uint64 {
	return uint64(fam)<<32 | uint64(uint32(v))
}

// Stack returns the underlying segment stack.
func (b *Base) Stack() *segment.Stack { return b.stack }

// Errors returns the number of decode errors swallowed by reads.
func (b *Base) Errors() uint64 { return b.stats.errs.Load() }

// CacheMisses returns how many lookups missed the decode cache and
// went to the segment blocks.
func (b *Base) CacheMisses() uint64 { return b.stats.misses.Load() }

// RecordsScanned returns how many block records those misses walked.
func (b *Base) RecordsScanned() uint64 { return b.stats.scanned.Load() }

// postScratch holds the decode buffers of cache misses: a miss decodes
// into one of them and copies out at exact size, its only allocation.
var postScratch = sync.Pool{New: func() any { return new([]segment.Post) }}

// fetch decodes the live postings of (fam, key) into a pooled buffer,
// which the caller copies from and then returns to postScratch.
// ok=false on a read error, which is counted; the buffer is then empty.
func (b *Base) fetch(fam segment.Family, key int32) (buf *[]segment.Post, ok bool) {
	b.stats.misses.Add(1)
	buf = postScratch.Get().(*[]segment.Post)
	posts, scanned, err := b.stack.Live(fam, key, (*buf)[:0])
	b.stats.scanned.Add(uint64(scanned))
	*buf = posts
	if err != nil {
		b.stats.errs.Add(1)
	}
	return buf, err == nil
}

func (b *Base) labelList(fam segment.Family, v int32) []Entry {
	k := cacheKey(fam, v)
	b.mu.RLock()
	out, ok := b.labelC[k]
	b.mu.RUnlock()
	if ok {
		return out
	}
	buf, ok := b.fetch(fam, v)
	if posts := *buf; len(posts) > 0 {
		out = make([]Entry, len(posts))
		for i, p := range posts {
			out[i] = Entry{Center: p.Val, Dist: p.Dist}
		}
	}
	postScratch.Put(buf)
	if !ok {
		return nil // not cached: errors are counted per read
	}
	b.mu.Lock()
	if len(b.labelC) >= baseCacheMax {
		clear(b.labelC)
	}
	b.labelC[k] = out
	b.mu.Unlock()
	return out
}

// Lin returns the sealed Lin(v) entries (sorted by center). The
// returned slice is shared — callers must not mutate it.
func (b *Base) Lin(v int32) []Entry { return b.labelList(segment.FamLin, v) }

// Lout returns the sealed Lout(v) entries.
func (b *Base) Lout(v int32) []Entry { return b.labelList(segment.FamLout, v) }

func (b *Base) owners(fam segment.Family, center int32) []int32 {
	k := cacheKey(fam, center)
	b.mu.RLock()
	out, ok := b.ownerC[k]
	b.mu.RUnlock()
	if ok {
		return out
	}
	buf, ok := b.fetch(fam, center)
	if posts := *buf; len(posts) > 0 {
		out = make([]int32, len(posts))
		for i, p := range posts {
			out[i] = p.Val
		}
	}
	postScratch.Put(buf)
	if !ok {
		return nil
	}
	b.mu.Lock()
	if len(b.ownerC) >= baseCacheMax {
		clear(b.ownerC)
	}
	b.ownerC[k] = out
	b.mu.Unlock()
	return out
}

// InOwners returns the sealed owners v with center ∈ Lin(v).
func (b *Base) InOwners(center int32) []int32 { return b.owners(segment.FamInOwn, center) }

// OutOwners returns the sealed owners u with center ∈ Lout(u).
func (b *Base) OutOwners(center int32) []int32 { return b.owners(segment.FamOutOwn, center) }

// look reports whether the sealed layer holds (fam, key) → val, and
// its distance. Folded tombstones read as absent. It reads through the
// label cache — the maintenance path probes the same few keys per
// batch, so this turns per-op block decodes into binary searches.
func (b *Base) look(fam segment.Family, key, val int32) (uint32, bool) {
	list := b.labelList(fam, key)
	i := sort.Search(len(list), func(i int) bool { return list[i].Center >= val })
	if i < len(list) && list[i].Center == val {
		return list[i].Dist, true
	}
	return 0, false
}

// --- Cover segment mode ------------------------------------------------
//
// In segment mode (c.base != nil) the flat In/Out slices stay nil and
// the label sets are the merged view of the sealed base plus an
// in-memory delta: dIn/dOut hold added or distance-overridden entries
// per node, tIn/tOut hold tombstoned base centers. An invariant keeps
// a center in at most one of (delta, tombstones) per node per side.

// Seg reports whether the cover reads through a segment base.
func (c *Cover) Seg() bool { return c.base != nil }

// Base returns the sealed layer (nil in flat mode).
func (c *Cover) Base() *Base { return c.base }

// Lin returns Lin(v), sorted by center. In flat mode this is the
// backing slice itself (callers must not mutate it); in segment mode
// the merged base+delta view.
func (c *Cover) Lin(v int32) []Entry { return c.LinBuf(v, nil) }

// Lout returns Lout(u); see Lin.
func (c *Cover) Lout(u int32) []Entry { return c.LoutBuf(u, nil) }

// LinBuf is Lin for a caller that reads one list at a time: where Lin
// would allocate a merged view, LinBuf builds it in *buf (grown as
// needed), so the result is only valid until buf's next use. A nil buf
// allocates like Lin.
func (c *Cover) LinBuf(v int32, buf *[]Entry) []Entry {
	if c.base == nil {
		return c.In[v]
	}
	return mergeView(c.base.Lin(v), c.dIn[v], c.tIn[v], buf)
}

// LoutBuf is Lout with LinBuf's buffer contract.
func (c *Cover) LoutBuf(u int32, buf *[]Entry) []Entry {
	if c.base == nil {
		return c.Out[u]
	}
	return mergeView(c.base.Lout(u), c.dOut[u], c.tOut[u], buf)
}

// mergeView overlays sorted delta entries on sorted base entries,
// dropping tombstoned centers. Delta wins on equal centers. The merge
// goes into *buf when one is given, else into a fresh slice.
func mergeView(base, delta []Entry, tombs map[int32]struct{}, buf *[]Entry) []Entry {
	if len(delta) == 0 && len(tombs) == 0 {
		return base
	}
	var out []Entry
	if buf != nil {
		out = (*buf)[:0]
	} else {
		out = make([]Entry, 0, len(base)+len(delta))
	}
	i, j := 0, 0
	for i < len(base) && j < len(delta) {
		switch {
		case base[i].Center < delta[j].Center:
			if !dead(tombs, base[i].Center) {
				out = append(out, base[i])
			}
			i++
		case base[i].Center > delta[j].Center:
			out = append(out, delta[j])
			j++
		default:
			out = append(out, delta[j]) // delta overrides base
			i++
			j++
		}
	}
	for ; i < len(base); i++ {
		if !dead(tombs, base[i].Center) {
			out = append(out, base[i])
		}
	}
	out = append(out, delta[j:]...)
	if buf != nil {
		*buf = out
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// dead reports whether center is tombstoned. Most nodes have no
// tombstones at all, and for them this is a length check, not a map
// probe per base entry.
func dead(tombs map[int32]struct{}, center int32) bool {
	if len(tombs) == 0 {
		return false
	}
	_, ok := tombs[center]
	return ok
}

// AdoptBase switches the cover to segment mode over b: the sealed
// layer holds every label, the delta starts empty. n is the node-ID
// space, size the live label count (Σ|Lin|+|Lout|).
func (c *Cover) AdoptBase(b *Base, n int, size int) {
	c.setBase(b)
	c.In, c.Out = nil, nil
	c.resetDelta()
	c.nSeg = n
	c.sizeSeg = size
}

// setBase installs b as the sealed layer; b continues the read
// counters of the base it replaces.
func (c *Cover) setBase(b *Base) {
	if c.base != nil {
		b.stats = c.base.stats
	}
	c.base = b
}

// SealSwap installs a new sealed base that already folds the current
// delta (a checkpoint sealed it into a segment) and resets the delta
// maps. The logical label set is unchanged. Clones taken before the
// swap keep the old base + delta and stay consistent.
func (c *Cover) SealSwap(b *Base) {
	c.setBase(b)
	c.resetDelta()
}

// resetDelta installs empty delta and tombstone maps, owned by c alone.
func (c *Cover) resetDelta() {
	c.dIn = map[int32][]Entry{}
	c.dOut = map[int32][]Entry{}
	c.tIn = map[int32]map[int32]struct{}{}
	c.tOut = map[int32]map[int32]struct{}{}
	c.mapsShared = false
}

// DeltaEntries returns the in-memory delta size (adds + tombstones
// across both sides) — the seal-threshold metric.
func (c *Cover) DeltaEntries() int {
	if c.base == nil {
		return 0
	}
	n := 0
	for _, l := range c.dIn {
		n += len(l)
	}
	for _, l := range c.dOut {
		n += len(l)
	}
	for _, s := range c.tIn {
		n += len(s)
	}
	for _, s := range c.tOut {
		n += len(s)
	}
	return n
}

// DeltaRecords flattens the delta layer into sorted per-family
// segment records, ready to seal: label families carry adds (with
// distances) and tombstones; owner families are the inversion.
func (c *Cover) DeltaRecords() [segment.NumFamilies][]segment.Rec {
	var fams [segment.NumFamilies][]segment.Rec
	fams[segment.FamLin] = labelRecs(c.dIn, c.tIn)
	fams[segment.FamLout] = labelRecs(c.dOut, c.tOut)
	fams[segment.FamInOwn] = ownerRecs(c.dIn, c.tIn)
	fams[segment.FamOutOwn] = ownerRecs(c.dOut, c.tOut)
	return fams
}

func labelRecs(delta map[int32][]Entry, tombs map[int32]map[int32]struct{}) []segment.Rec {
	keys := make([]int32, 0, len(delta)+len(tombs))
	seen := make(map[int32]bool, len(delta)+len(tombs))
	for v := range delta {
		keys = append(keys, v)
		seen[v] = true
	}
	for v := range tombs {
		if !seen[v] {
			keys = append(keys, v)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	recs := make([]segment.Rec, 0, len(keys))
	for _, v := range keys {
		adds := delta[v]
		dead := tombs[v]
		posts := make([]segment.Post, 0, len(adds)+len(dead))
		for _, e := range adds {
			posts = append(posts, segment.Post{Val: e.Center, Dist: e.Dist})
		}
		for ctr := range dead {
			posts = append(posts, segment.Post{Val: ctr, Tomb: true})
		}
		sort.Slice(posts, func(i, j int) bool { return posts[i].Val < posts[j].Val })
		if len(posts) > 0 {
			recs = append(recs, segment.Rec{Key: v, Posts: posts})
		}
	}
	return recs
}

func ownerRecs(delta map[int32][]Entry, tombs map[int32]map[int32]struct{}) []segment.Rec {
	byCenter := map[int32][]segment.Post{}
	// iterate owners in ascending order so posting lists come out sorted
	owners := make([]int32, 0, len(delta)+len(tombs))
	seen := make(map[int32]bool, len(delta)+len(tombs))
	for v := range delta {
		owners = append(owners, v)
		seen[v] = true
	}
	for v := range tombs {
		if !seen[v] {
			owners = append(owners, v)
		}
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, v := range owners {
		for _, e := range delta[v] {
			byCenter[e.Center] = append(byCenter[e.Center], segment.Post{Val: v})
		}
		for ctr := range tombs[v] {
			byCenter[ctr] = append(byCenter[ctr], segment.Post{Val: v, Tomb: true})
		}
	}
	keys := make([]int32, 0, len(byCenter))
	for ctr := range byCenter {
		keys = append(keys, ctr)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	recs := make([]segment.Rec, 0, len(keys))
	for _, ctr := range keys {
		recs = append(recs, segment.Rec{Key: ctr, Posts: byCenter[ctr]})
	}
	return recs
}

// FullRecords flattens the cover's complete current label set (both
// modes) into sorted per-family segment records — the input for
// sealing an initial or rebuilt segment that holds everything.
func (c *Cover) FullRecords() [segment.NumFamilies][]segment.Rec {
	var fams [segment.NumFamilies][]segment.Rec
	inOwn := map[int32][]segment.Post{}
	outOwn := map[int32][]segment.Post{}
	n := int32(c.N())
	for v := int32(0); v < n; v++ {
		if lin := c.Lin(v); len(lin) > 0 {
			posts := make([]segment.Post, len(lin))
			for i, e := range lin {
				posts[i] = segment.Post{Val: e.Center, Dist: e.Dist}
				inOwn[e.Center] = append(inOwn[e.Center], segment.Post{Val: v})
			}
			fams[segment.FamLin] = append(fams[segment.FamLin], segment.Rec{Key: v, Posts: posts})
		}
		if lout := c.Lout(v); len(lout) > 0 {
			posts := make([]segment.Post, len(lout))
			for i, e := range lout {
				posts[i] = segment.Post{Val: e.Center, Dist: e.Dist}
				outOwn[e.Center] = append(outOwn[e.Center], segment.Post{Val: v})
			}
			fams[segment.FamLout] = append(fams[segment.FamLout], segment.Rec{Key: v, Posts: posts})
		}
	}
	fams[segment.FamInOwn] = ownerMapRecs(inOwn)
	fams[segment.FamOutOwn] = ownerMapRecs(outOwn)
	return fams
}

func ownerMapRecs(m map[int32][]segment.Post) []segment.Rec {
	keys := make([]int32, 0, len(m))
	for c := range m {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	recs := make([]segment.Rec, 0, len(keys))
	for _, c := range keys {
		recs = append(recs, segment.Rec{Key: c, Posts: m[c]}) // owners appended in ascending node order
	}
	return recs
}

// segAdd implements AddIn/AddOut in segment mode. Returns whether the
// merged label set changed (mirrors addEntry).
func (c *Cover) segAdd(delta map[int32][]Entry, tombs map[int32]map[int32]struct{}, fam segment.Family, v, center int32, dist uint32) bool {
	list := delta[v]
	if i := findCenter(list, center); i >= 0 {
		if dist < list[i].Dist {
			list[i].Dist = dist
			return true
		}
		return false
	}
	if dead := tombs[v]; dead != nil {
		if _, ok := dead[center]; ok {
			delete(dead, center)
			if len(dead) == 0 {
				delete(tombs, v)
			}
			delta[v], _ = addEntry(list, center, dist)
			c.sizeSeg++
			return true
		}
	}
	if baseDist, ok := c.base.look(fam, v, center); ok {
		if dist < baseDist {
			delta[v], _ = addEntry(list, center, dist) // distance override
			return true
		}
		return false
	}
	delta[v], _ = addEntry(list, center, dist)
	c.sizeSeg++
	return true
}

// segRemove implements RemoveIn/RemoveOut in segment mode.
func (c *Cover) segRemove(delta map[int32][]Entry, tombs map[int32]map[int32]struct{}, fam segment.Family, v, center int32) bool {
	if dead := tombs[v]; dead != nil {
		if _, ok := dead[center]; ok {
			return false // already removed
		}
	}
	inDelta := false
	if list := delta[v]; list != nil {
		if i := findCenter(list, center); i >= 0 {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(delta, v)
			} else {
				delta[v] = list
			}
			inDelta = true
		}
	}
	_, inBase := c.base.look(fam, v, center)
	if !inDelta && !inBase {
		return false
	}
	if inBase {
		dead := tombs[v]
		if dead == nil {
			dead = map[int32]struct{}{}
			tombs[v] = dead
		}
		dead[center] = struct{}{}
	}
	c.sizeSeg--
	return true
}
