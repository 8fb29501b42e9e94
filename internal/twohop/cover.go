// Package twohop implements 2-hop covers (Cohen et al., SODA 2002) as
// used by the HOPI index: the greedy density-driven construction with a
// lazily maintained priority queue of candidate centers (HOPI, EDBT
// 2004, §3.2 of the ICDE 2005 paper), link-target center preselection
// (§4.2), and the distance-aware variant with sampled initial density
// estimation (§5.2).
//
// A 2-hop cover assigns every node v two label sets Lin(v) and Lout(v)
// of center nodes such that u →* v iff (Lout(u) ∪ {u}) ∩ (Lin(v) ∪ {v})
// is non-empty. Following the paper's storage scheme (§3.4), a node is
// never stored inside its own labels; queries account for the implicit
// self entries.
//
// A cover has one representation, sealed or not: an optional immutable
// Base (a stack of on-disk segments) beneath an in-memory delta, which
// holds per-node entry lists above the base plus tombstones for the
// sealed entries removed since. With no base the delta holds every
// label. PostingIndex, the center→owners inversion, mirrors it: base
// owners, plus delta owners, minus masked base owners.
package twohop

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"hopi/internal/graph"
	"hopi/internal/segment"
)

// Entry is one label element: a center node and, for distance-aware
// covers, the length of the shortest path between the labeled node and
// the center (node→center for Lout entries, center→node for Lin).
type Entry struct {
	Center int32
	Dist   uint32
}

// Cover is a 2-hop cover over nodes [0, N()). Its labels are a sealed
// base (nil until a store seals the cover; see SealSwap) overlaid by a
// delta: In[v] and Out[v] hold the entries above the base — new centers
// and distance overrides, sorted by center — and per-node tombstone
// sets hold the sealed centers removed since. With no base, In and Out
// hold every label. Readers go through Lin/Lout, which return the delta
// list itself, copying nothing and taking no lock, when the base has
// nothing for the node (and so nothing of it is tombstoned).
//
// Direct In/Out access is for builders: they size the spine with
// NewCover, fill it, and then call Finish or Recount, all before any
// Clone. Everything else mutates through AddIn, RemoveIn and their
// kin, which keep the counters, the tombstones and copy-on-write
// right. Past a builder the spine is sized lazily: it may be shorter
// than N, and a write extends it to its node.
//
// Clone shares every label list and tombstone set between the two
// covers; the mutator methods copy a node's list and set on its first
// write after a share (see claim).
type Cover struct {
	In  [][]Entry
	Out [][]Entry
	// WithDist records whether Dist fields are meaningful.
	WithDist bool

	// rec, when set, observes every effective label mutation made
	// through the mutator methods; see SetRecorder in delta.go.
	rec func(CoverDelta)

	n     int // node-ID space
	size  int // live entries Σ|Lin(v)|+|Lout(v)|
	delta int // delta entries plus tombstones: what the next seal writes

	// base is the sealed layer beneath the delta; tombs holds, per
	// side, node → the base centers removed since the seal. A center
	// is never in both the delta list and the tombstones of one node.
	base  *Base
	tombs [2]map[int32]map[int32]struct{}

	// Copy-on-write state. shared is set by Clone on both covers: from
	// then on a node's list and tombstone set may be another cover's
	// too. owned marks, per side, the nodes this cover has claimed
	// since, and tombsShared that the tombstone maps themselves still
	// are shared.
	shared      bool
	owned       [2]graph.Bitset
	tombsShared bool
}

// side selects one half of the labels: Lin or Lout.
type side uint8

const (
	sideIn side = iota
	sideOut
)

var (
	labelFam = [2]segment.Family{segment.FamLin, segment.FamLout}
	ownerFam = [2]segment.Family{segment.FamInOwn, segment.FamOutOwn}
	addKind  = [2]DeltaKind{DeltaAddIn, DeltaAddOut}
	rmKind   = [2]DeltaKind{DeltaRemoveIn, DeltaRemoveOut}
)

func (c *Cover) spine(s side) *[][]Entry {
	if s == sideIn {
		return &c.In
	}
	return &c.Out
}

// at returns lists[v], or nil past the end of a lazily sized spine.
func at(lists [][]Entry, v int32) []Entry {
	if i := int(v); uint(i) < uint(len(lists)) {
		return lists[i]
	}
	return nil
}

// tombsOf returns node v's tombstone set without probing an empty map.
func tombsOf(tombs map[int32]map[int32]struct{}, v int32) map[int32]struct{} {
	if len(tombs) == 0 {
		return nil
	}
	return tombs[v]
}

// NewCover returns an empty cover for n nodes with a spine of n empty
// lists, ready for a builder to fill.
func NewCover(n int, withDist bool) *Cover {
	return &Cover{
		In:       make([][]Entry, n),
		Out:      make([][]Entry, n),
		WithDist: withDist,
		n:        n,
	}
}

// N returns the number of nodes the cover is defined over.
func (c *Cover) N() int { return c.n }

// Grow extends the cover to n nodes (no-op if already that large); new
// nodes start with empty labels. Document insertion uses this to keep
// global IDs stable.
func (c *Cover) Grow(n int) {
	if n <= c.n {
		return
	}
	c.n = n
	c.emit(DeltaGrow, int32(n), 0, 0)
}

// Size returns the total number of stored label entries, the paper's
// cover size metric |L| = Σ |Lin(v)| + |Lout(v)|.
func (c *Cover) Size() int { return c.size }

// DeltaEntries returns the delta's size, entries plus tombstones across
// both sides: the seal-threshold metric. With no base it is Size().
func (c *Cover) DeltaEntries() int { return c.delta }

// Recount sets Size and DeltaEntries from the delta lists. A builder
// that wrote In/Out directly calls it once when done, before the cover
// gets a base.
func (c *Cover) Recount() {
	n := 0
	for v := range c.In {
		n += len(c.In[v])
	}
	for v := range c.Out {
		n += len(c.Out[v])
	}
	c.size, c.delta = n, n
}

// AddIn inserts center into Lin(v). Self entries are dropped (they are
// implicit). Duplicate centers keep the smaller distance.
func (c *Cover) AddIn(v, center int32, dist uint32) { c.add(sideIn, v, center, dist) }

// AddOut inserts center into Lout(u); see AddIn for semantics.
func (c *Cover) AddOut(u, center int32, dist uint32) { c.add(sideOut, u, center, dist) }

// add is AddIn/AddOut on side s. A new center, or a distance below a
// sealed entry's, goes into the delta list; a center the tombstones
// hold comes back to life. Only an effective change is emitted.
func (c *Cover) add(s side, v, center int32, dist uint32) {
	if v == center {
		return
	}
	list := at(*c.spine(s), v)
	i := sort.Search(len(list), func(i int) bool { return list[i].Center >= center })
	found := i < len(list) && list[i].Center == center
	revived, live := false, false
	switch {
	case found:
		if dist >= list[i].Dist {
			return
		}
	case c.buried(s, v, center):
		revived, live = true, true
	default:
		d, sealed := c.base.look(s, v, center)
		if sealed && dist >= d {
			return
		}
		live = !sealed
	}
	shared := c.claim(s, v)
	e := Entry{Center: center, Dist: dist}
	switch {
	case found && shared:
		list = slices.Clone(list)
		list[i] = e
	case found:
		list[i] = e
	case shared:
		list = slices.Concat(list[:i], []Entry{e}, list[i:])
	default:
		list = slices.Insert(list, i, e)
	}
	(*c.spine(s))[v] = list
	if !found {
		c.delta++
	}
	if revived {
		c.unbury(s, v, center)
	}
	if live {
		c.size++
	}
	c.emit(addKind[s], v, center, dist)
}

// remove is RemoveIn/RemoveOut on side s: the center leaves the delta
// list, and a sealed entry is tombstoned.
func (c *Cover) remove(s side, v, center int32) {
	list := at(*c.spine(s), v)
	i := findCenter(list, center)
	_, sealed := c.base.look(s, v, center)
	if i < 0 && (!sealed || c.buried(s, v, center)) {
		return
	}
	shared := c.claim(s, v)
	switch {
	case i < 0 && shared:
		list = slices.Clone(list) // kept, but owned from now on
	case i < 0:
	case len(list) == 1:
		list = nil
	case shared:
		list = slices.Concat(list[:i], list[i+1:])
	default:
		list = slices.Delete(list, i, i+1)
	}
	(*c.spine(s))[v] = list
	if i >= 0 {
		c.delta--
	}
	if sealed {
		c.bury(s, v, center)
	}
	c.size--
	c.emit(rmKind[s], v, center, 0)
}

// filter removes every entry of side s of node v whose center drop
// selects, in one pass that merges the sealed list with the delta list
// and emits one remove per dropped entry, in center order. The delta
// list is filtered in place, or into a fresh slice when it may be
// shared with a clone.
func (c *Cover) filter(s side, v int32, drop func(center int32) bool) {
	base, list := c.base.label(s, v), at(*c.spine(s), v)
	if !c.drops(s, v, base, list, drop) {
		return
	}
	var out []Entry // the kept delta entries, once the list is rewritten
	claimed, rewrite := false, false
	for i, j := 0, 0; i < len(base) || j < len(list); {
		k := j // list[:k] precedes this entry, all kept
		e, inDelta, sealed := Entry{}, true, false
		switch {
		case i == len(base):
			e = list[j]
		case j == len(list) || base[i].Center < list[j].Center:
			e, inDelta, sealed = base[i], false, true
		default:
			e, sealed = list[j], base[i].Center == list[j].Center
		}
		if inDelta {
			j++
		}
		if sealed {
			i++
		}
		if !inDelta && c.buried(s, v, e.Center) {
			continue
		}
		if !drop(e.Center) {
			if inDelta && rewrite {
				out = append(out, e)
			}
			continue
		}
		if !claimed {
			claimed = true
			if c.claim(s, v) {
				rewrite, out = true, append(make([]Entry, 0, len(list)), list[:k]...)
			}
		}
		if inDelta {
			if !rewrite {
				rewrite, out = true, list[:k]
			}
			c.delta--
		}
		if sealed {
			c.bury(s, v, e.Center)
		}
		c.size--
		c.emit(rmKind[s], v, e.Center, 0)
	}
	if rewrite {
		if len(out) == 0 {
			out = nil
		}
		(*c.spine(s))[v] = out
	}
}

// drops reports whether drop selects any live entry of the sealed list
// base or the delta list of node v; most filtered nodes keep every
// entry.
func (c *Cover) drops(s side, v int32, base, list []Entry, drop func(int32) bool) bool {
	for _, e := range list {
		if drop(e.Center) {
			return true
		}
	}
	for _, e := range base {
		if drop(e.Center) && !c.buried(s, v, e.Center) {
			return true
		}
	}
	return false
}

// claim readies node v's side-s delta list and tombstone set for a
// write. It extends the spine to v; after a Clone, the first write to a
// node takes private copies of the tombstone maps (set headers only)
// and of the node's tombstone set. It reports whether the delta list
// may still be shared: the caller then writes it into a fresh slice.
func (c *Cover) claim(s side, v int32) bool {
	if sp := c.spine(s); int(v) >= len(*sp) {
		*sp = append(*sp, make([][]Entry, int(v)+1-len(*sp))...)
	}
	if !c.shared || c.owned[s].Has(int(v)) {
		return false
	}
	c.owned[s] = c.owned[s].Grow(max(c.n, int(v)+1))
	c.owned[s].Set(int(v))
	if c.tombsShared {
		c.tombs = [2]map[int32]map[int32]struct{}{maps.Clone(c.tombs[0]), maps.Clone(c.tombs[1])}
		c.tombsShared = false
	}
	if dead, ok := c.tombs[s][v]; ok {
		c.tombs[s][v] = maps.Clone(dead)
	}
	return true
}

// buried reports whether center is a tombstoned base entry of node v.
func (c *Cover) buried(s side, v, center int32) bool {
	return dead(tombsOf(c.tombs[s], v), center)
}

// bury tombstones the sealed entry center of node v; the node must be
// claimed.
func (c *Cover) bury(s side, v, center int32) {
	if c.tombs[s] == nil {
		c.tombs[s] = map[int32]map[int32]struct{}{}
	}
	dead := c.tombs[s][v]
	if dead == nil {
		dead = map[int32]struct{}{}
		c.tombs[s][v] = dead
	}
	dead[center] = struct{}{}
	c.delta++
}

// unbury drops center from node v's tombstones; the node must be
// claimed.
func (c *Cover) unbury(s side, v, center int32) {
	dead := c.tombs[s][v]
	delete(dead, center)
	if len(dead) == 0 {
		delete(c.tombs[s], v)
	}
	c.delta--
}

// Finish sorts and deduplicates all labels and recounts them; builders
// call it once after bulk appends. It bypasses delta recording —
// maintenance keeps labels sorted through the mutator methods and
// never needs it.
func (c *Cover) Finish() {
	for i := range c.In {
		c.In[i] = sortDedupe(c.In[i])
		c.Out[i] = sortDedupe(c.Out[i])
	}
	c.Recount()
}

func sortDedupe(list []Entry) []Entry {
	if len(list) < 2 {
		return list
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].Center != list[b].Center {
			return list[a].Center < list[b].Center
		}
		return list[a].Dist < list[b].Dist
	})
	out := list[:1]
	for _, e := range list[1:] {
		if e.Center != out[len(out)-1].Center {
			out = append(out, e)
		}
	}
	return out
}

// Lin returns Lin(v), sorted by center. Callers must not mutate it:
// it may be the delta list itself or a list the base caches.
func (c *Cover) Lin(v int32) []Entry { return c.LinBuf(v, nil) }

// Lout returns Lout(u); see Lin.
func (c *Cover) Lout(u int32) []Entry { return c.LoutBuf(u, nil) }

// LinBuf is Lin for a caller that reads one list at a time: where Lin
// would allocate a merged view, LinBuf builds it in *buf (grown as
// needed), so the result is only valid until buf's next use. A nil buf
// allocates like Lin. With nothing sealed for the node the view is its
// delta list, with no merge.
func (c *Cover) LinBuf(v int32, buf *[]Entry) []Entry {
	base := c.base.Lin(v)
	if len(base) == 0 {
		return at(c.In, v) // nothing sealed, so nothing tombstoned
	}
	return mergeView(base, at(c.In, v), tombsOf(c.tombs[sideIn], v), buf)
}

// LoutBuf is Lout with LinBuf's buffer contract.
func (c *Cover) LoutBuf(u int32, buf *[]Entry) []Entry {
	base := c.base.Lout(u)
	if len(base) == 0 {
		return at(c.Out, u)
	}
	return mergeView(base, at(c.Out, u), tombsOf(c.tombs[sideOut], u), buf)
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

// Reaches reports whether there is a path u →* v according to the
// cover, including the reflexive case and the implicit self entries:
// u →* v iff u == v, or v ∈ Lout(u), or u ∈ Lin(v), or
// Lout(u) ∩ Lin(v) ≠ ∅. This mirrors the paper's SQL test plus its
// "simple additional queries" for the omitted self entries.
func (c *Cover) Reaches(u, v int32) bool {
	if u == v {
		return true
	}
	lout, lin := c.Lout(u), c.Lin(v)
	if hasCenter(lout, v) || hasCenter(lin, u) {
		return true
	}
	return intersects(lout, lin)
}

// Distance returns the shortest-path length u → v implied by the cover
// (the SQL MIN(LOUT.DIST + LIN.DIST) of §5.1 plus the implicit self
// entries), or graph.InfDist if unreachable. Only meaningful on covers
// built with distance awareness.
func (c *Cover) Distance(u, v int32) uint32 {
	if u == v {
		return 0
	}
	return ListDistance(u, c.Lout(u), v, c.Lin(v))
}

// ListDistance is Distance over labels the caller already fetched:
// lout is Lout(u) and lin is Lin(v). A caller measuring many pairs
// that share an endpoint fetches that endpoint's list once.
func ListDistance(u int32, lout []Entry, v int32, lin []Entry) uint32 {
	if u == v {
		return 0
	}
	best := graph.InfDist
	if i := findCenter(lout, v); i >= 0 {
		best = lout[i].Dist
	}
	if i := findCenter(lin, u); i >= 0 {
		if d := lin[i].Dist; d < best {
			best = d
		}
	}
	// Merge-intersect the two sorted lists, minimizing the distance sum.
	i, j := 0, 0
	for i < len(lout) && j < len(lin) {
		switch {
		case lout[i].Center < lin[j].Center:
			i++
		case lout[i].Center > lin[j].Center:
			j++
		default:
			if d := lout[i].Dist + lin[j].Dist; d < best {
				best = d
			}
			i++
			j++
		}
	}
	return best
}

func hasCenter(list []Entry, center int32) bool {
	return findCenter(list, center) >= 0
}

func findCenter(list []Entry, center int32) int {
	i := sort.Search(len(list), func(i int) bool { return list[i].Center >= center })
	if i < len(list) && list[i].Center == center {
		return i
	}
	return -1
}

func intersects(a, b []Entry) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Center < b[j].Center:
			i++
		case a[i].Center > b[j].Center:
			j++
		default:
			return true
		}
	}
	return false
}

// Clone returns a cover with the same labels that shares every label
// list and tombstone set with c copy-on-write: both covers copy a
// node's list and set before their first write to it. Only the spines
// are copied (slice headers up to the highest node the delta touched);
// the sealed base is immutable and shared outright. Callers must
// serialize Clone against mutations of c, as for any mutation.
func (c *Cover) Clone() *Cover {
	c.shared, c.owned, c.tombsShared = true, [2]graph.Bitset{}, true
	return &Cover{
		In:          slices.Clone(c.In),
		Out:         slices.Clone(c.Out),
		WithDist:    c.WithDist,
		n:           c.n,
		size:        c.size,
		delta:       c.delta,
		base:        c.base,
		tombs:       c.tombs,
		shared:      true,
		tombsShared: true,
	}
}

// Verify checks the cover against a ground-truth closure: every
// connection must be covered (completeness) and no non-connection may
// be reflected (soundness). It returns a descriptive error for the
// first violation found.
func Verify(c *Cover, cl *graph.Closure) error {
	n := cl.N()
	if c.N() != n {
		return fmt.Errorf("twohop: cover over %d nodes, closure over %d", c.N(), n)
	}
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			want := u == v || cl.Has(u, v)
			if got := c.Reaches(u, v); got != want {
				return fmt.Errorf("twohop: Reaches(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	return nil
}

// VerifyDistance checks a distance-aware cover against a ground-truth
// distance closure: Distance(u,v) must equal the BFS distance for every
// pair (InfDist for unreachable pairs).
func VerifyDistance(c *Cover, dc *graph.DistClosure) error {
	n := dc.N()
	if c.N() != n {
		return fmt.Errorf("twohop: cover over %d nodes, closure over %d", c.N(), n)
	}
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			want := dc.D(u, v)
			if got := c.Distance(u, v); got != want {
				return fmt.Errorf("twohop: Distance(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	return nil
}
