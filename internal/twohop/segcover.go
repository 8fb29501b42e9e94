package twohop

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"hopi/internal/graph"
	"hopi/internal/obs"
	"hopi/internal/segment"
)

// Base is the sealed, immutable layer beneath a Cover: a stack of
// on-disk segments read through mmap. A Base is a value snapshot —
// sealing or compacting installs a new Base (see Cover.SealSwap);
// existing snapshots keep theirs. A nil *Base is the empty base: every
// read returns nil without touching a lock or cache.
//
// Reads decode varint blocks on every lookup, so the Base keeps a
// bounded read-through cache of decoded lists (immutability makes it
// trivially coherent; it is dropped wholesale with the Base on seal or
// compaction). The cache stores empty results too — the query engine
// probes far more absent keys than present ones.
//
// Decode errors after a successful open are effectively impossible
// (every block is CRC-verified at open and the mapping is immutable);
// if one occurs anyway the affected list reads as empty and the errs
// counter counts it, rather than poisoning the query path with panics.
type Base struct {
	stack *segment.Stack
	// read counters, owned by whoever outlives the bases (an index
	// passes the same ones to every NewBase), so totals never go back
	misses  *obs.Counter // decode-cache misses
	scanned *obs.Counter // block records walked to serve them
	errs    *obs.Counter // decode errors swallowed by reads

	mu     sync.RWMutex
	labelC map[uint64][]Entry // (fam,key) → merged live entries
}

// baseCacheMax bounds the decoded-list cache; on overflow the map is
// cleared rather than evicted piecemeal (immutable source, refilling
// is cheap and the common working set is far smaller).
const baseCacheMax = 1 << 15

// NewBase wraps a sealed segment stack. Its reads count cache misses,
// the block records those misses walk, and decode errors into the
// given counters; nil counters count nothing.
func NewBase(st *segment.Stack, misses, scanned, errs *obs.Counter) *Base {
	return &Base{
		stack:   st,
		misses:  misses,
		scanned: scanned,
		errs:    errs,
		labelC:  make(map[uint64][]Entry),
	}
}

func cacheKey(fam segment.Family, v int32) uint64 {
	return uint64(fam)<<32 | uint64(uint32(v))
}

// Stack returns the underlying segment stack.
func (b *Base) Stack() *segment.Stack { return b.stack }

// postScratch holds the decode buffers of cache misses: a miss decodes
// into one of them and copies out at exact size, its only allocation.
var postScratch = sync.Pool{New: func() any { return new([]segment.Post) }}

// fetch decodes the live postings of (fam, key) into a pooled buffer,
// which the caller copies from and then returns to postScratch.
// ok=false on a read error, which is counted; the buffer is then empty.
func (b *Base) fetch(fam segment.Family, key int32) (buf *[]segment.Post, ok bool) {
	b.misses.Inc()
	buf = postScratch.Get().(*[]segment.Post)
	posts, scanned, err := b.stack.Live(fam, key, (*buf)[:0])
	b.scanned.Add(uint64(scanned))
	*buf = posts
	if err != nil {
		b.errs.Inc()
	}
	return buf, err == nil
}

func (b *Base) list(fam segment.Family, v int32) []Entry {
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

// label returns the sealed label list of node v on side s.
func (b *Base) label(s side, v int32) []Entry {
	if b == nil {
		return nil
	}
	return b.list(labelFam[s], v)
}

// Lin returns the sealed Lin(v) entries (sorted by center). The
// returned slice is shared — callers must not mutate it.
func (b *Base) Lin(v int32) []Entry { return b.label(sideIn, v) }

// Lout returns the sealed Lout(v) entries.
func (b *Base) Lout(v int32) []Entry { return b.label(sideOut, v) }

// look reports whether the sealed label of node key on side s holds
// val, and its distance. Folded tombstones read as absent. It reads
// through the label cache — the maintenance path probes the same few
// keys per batch, so this turns per-op block decodes into binary
// searches.
func (b *Base) look(s side, key, val int32) (uint32, bool) {
	list := b.label(s, key)
	i := sort.Search(len(list), func(i int) bool { return list[i].Center >= val })
	if i < len(list) && list[i].Center == val {
		return list[i].Dist, true
	}
	return 0, false
}

// Seg reports whether the cover reads through a sealed base.
func (c *Cover) Seg() bool { return c.base != nil }

// Base returns the sealed layer (nil when there is none).
func (c *Cover) Base() *Base { return c.base }

// SealSwap installs b as the sealed layer of a cover over n nodes
// holding live entries, and empties the delta. b either folds the
// current delta (a checkpoint sealed it, and the labels are unchanged)
// or is a stored image a fresh cover opens over. Clones taken before
// the swap keep the old base and delta and stay consistent.
func (c *Cover) SealSwap(b *Base, n, live int) {
	c.base, c.n, c.size, c.delta = b, n, live, 0
	c.In, c.Out = nil, nil
	c.tombs = [2]map[int32]map[int32]struct{}{}
	c.shared, c.owned, c.tombsShared = false, [2]graph.Bitset{}, false
}

// DeltaRecords flattens the delta into sorted per-family segment
// records, ready to seal: the delta entries, with distances, and the
// tombstones. With no base the delta is every label, so this is the
// complete record set.
func (c *Cover) DeltaRecords() [segment.NumFamilies][]segment.Rec {
	var fams [segment.NumFamilies][]segment.Rec
	for s := sideIn; s <= sideOut; s++ {
		lists, tombs := *c.spine(s), c.tombs[s]
		fams[labelFam[s]] = records(len(lists), func(v int32) []segment.Post {
			adds, dead := lists[v], tombsOf(tombs, v)
			if len(adds)+len(dead) == 0 {
				return nil
			}
			posts := make([]segment.Post, 0, len(adds)+len(dead))
			for _, e := range adds {
				posts = append(posts, segment.Post{Val: e.Center, Dist: e.Dist})
			}
			for ctr := range dead {
				posts = append(posts, segment.Post{Val: ctr, Tomb: true})
			}
			if len(dead) > 0 {
				slices.SortFunc(posts, func(a, b segment.Post) int { return cmp.Compare(a.Val, b.Val) })
			}
			return posts
		})
	}
	return fams
}

// FullRecords flattens the cover's complete label set, base and delta
// merged, into sorted per-family segment records: the cold copy a Save
// writes of a cover that has a base.
func (c *Cover) FullRecords() [segment.NumFamilies][]segment.Rec {
	var fams [segment.NumFamilies][]segment.Rec
	var buf []Entry
	for s, view := range [2]func(int32, *[]Entry) []Entry{c.LinBuf, c.LoutBuf} {
		fams[labelFam[s]] = records(c.n, func(v int32) []segment.Post {
			list := view(v, &buf)
			if len(list) == 0 {
				return nil
			}
			posts := make([]segment.Post, len(list))
			for i, e := range list {
				posts[i] = segment.Post{Val: e.Center, Dist: e.Dist}
			}
			return posts
		})
	}
	return fams
}

// records collects the posting lists of nodes [0, n), by node, into
// label records.
func records(n int, list func(v int32) []segment.Post) []segment.Rec {
	var labels []segment.Rec
	for v := int32(0); v < int32(n); v++ {
		if posts := list(v); len(posts) > 0 {
			labels = append(labels, segment.Rec{Key: v, Posts: posts})
		}
	}
	return labels
}
