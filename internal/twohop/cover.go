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

// Cover is a 2-hop cover over nodes [0, n). Labels hold Entry slices
// sorted by center (after Finish or any mutation through Add*).
//
// A cover runs in one of two modes. In flat mode (the default, and
// the only mode builders ever see) the In/Out slices hold every
// label. In segment mode (AdoptBase) the labels are the merged view
// of an immutable on-disk segment stack plus an in-memory delta, and
// In/Out stay nil — readers must go through Lin/Lout, which cost
// nothing extra in flat mode.
//
// Clone shares every label list between the two covers; the mutator
// methods copy a list on its first write after a share (see claim).
// Builders write In/Out directly and must do so before any Clone.
type Cover struct {
	In  [][]Entry
	Out [][]Entry
	// WithDist records whether Dist fields are meaningful.
	WithDist bool

	// rec, when set, observes every effective label mutation made
	// through the mutator methods; see SetRecorder in delta.go.
	rec func(CoverDelta)

	// Copy-on-write state. shared is set by Clone on both covers: from
	// then on a node's lists may be another cover's too. inOwned and
	// outOwned mark the nodes whose lists (segment mode: delta list and
	// tombstone set) this cover has copied since, and mapsShared that
	// the segment-mode delta and tombstone maps themselves still are.
	shared            bool
	inOwned, outOwned graph.Bitset
	mapsShared        bool

	// segment mode (see segcover.go); base == nil means flat mode.
	base      *Base
	dIn, dOut map[int32][]Entry
	tIn, tOut map[int32]map[int32]struct{}
	nSeg      int
	sizeSeg   int
}

// NewCover returns an empty cover for n nodes.
func NewCover(n int, withDist bool) *Cover {
	return &Cover{
		In:       make([][]Entry, n),
		Out:      make([][]Entry, n),
		WithDist: withDist,
	}
}

// N returns the number of nodes the cover is defined over.
func (c *Cover) N() int {
	if c.base != nil {
		return c.nSeg
	}
	return len(c.In)
}

// Grow extends the cover to n nodes (no-op if already that large); new
// nodes start with empty labels. Document insertion uses this to keep
// global IDs stable.
func (c *Cover) Grow(n int) {
	if c.base != nil {
		if n <= c.nSeg {
			return
		}
		c.nSeg = n
		c.emit(DeltaGrow, int32(n), 0, 0)
		return
	}
	if len(c.In) >= n {
		return
	}
	for len(c.In) < n {
		c.In = append(c.In, nil)
		c.Out = append(c.Out, nil)
	}
	c.emit(DeltaGrow, int32(n), 0, 0)
}

// Size returns the total number of stored label entries, the paper's
// cover size metric |L| = Σ |Lin(v)| + |Lout(v)|.
func (c *Cover) Size() int {
	if c.base != nil {
		return c.sizeSeg
	}
	s := 0
	for i := range c.In {
		s += len(c.In[i]) + len(c.Out[i])
	}
	return s
}

// AddIn inserts center into Lin(v). Self entries are dropped (they are
// implicit). Duplicate centers keep the smaller distance.
func (c *Cover) AddIn(v, center int32, dist uint32) {
	if v == center {
		return
	}
	var changed bool
	if c.base != nil {
		c.ownIn(v)
		changed = c.segAdd(c.dIn, c.tIn, segment.FamLin, v, center, dist)
	} else {
		changed = c.addFlat(c.In, &c.inOwned, v, center, dist)
	}
	if changed {
		c.emit(DeltaAddIn, v, center, dist)
	}
}

// AddOut inserts center into Lout(u); see AddIn for semantics.
func (c *Cover) AddOut(u, center int32, dist uint32) {
	if u == center {
		return
	}
	var changed bool
	if c.base != nil {
		c.ownOut(u)
		changed = c.segAdd(c.dOut, c.tOut, segment.FamLout, u, center, dist)
	} else {
		changed = c.addFlat(c.Out, &c.outOwned, u, center, dist)
	}
	if changed {
		c.emit(DeltaAddOut, u, center, dist)
	}
}

// addFlat is AddIn/AddOut on the flat lists of one side. It reports
// whether lists[v] changed; a list shared with a clone is written into
// a fresh slice instead of in place.
func (c *Cover) addFlat(lists [][]Entry, owned *graph.Bitset, v, center int32, dist uint32) bool {
	list := lists[v]
	i := sort.Search(len(list), func(i int) bool { return list[i].Center >= center })
	found := i < len(list) && list[i].Center == center
	if found && dist >= list[i].Dist {
		return false
	}
	e := Entry{Center: center, Dist: dist}
	shared := c.claim(owned, v)
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
	lists[v] = list
	return true
}

// removeFlat drops list[i] from the flat list of node v: in place when
// this cover owns the list, into a fresh slice when it may be shared.
func (c *Cover) removeFlat(list []Entry, owned *graph.Bitset, v int32, i int) []Entry {
	switch {
	case len(list) == 1:
		return nil
	case c.claim(owned, v):
		return slices.Concat(list[:i], list[i+1:])
	}
	return slices.Delete(list, i, i+1)
}

// addEntry inserts or min-merges an entry in place, reporting whether
// the list actually changed (new center, or an existing one got
// closer).
func addEntry(list []Entry, center int32, dist uint32) ([]Entry, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].Center >= center })
	if i < len(list) && list[i].Center == center {
		if dist < list[i].Dist {
			list[i].Dist = dist
			return list, true
		}
		return list, false
	}
	list = append(list, Entry{})
	copy(list[i+1:], list[i:])
	list[i] = Entry{Center: center, Dist: dist}
	return list, true
}

// ownIn makes a segment-mode cover's delta list and tombstone set of
// node v safe to write in place: after a Clone the first write copies
// them, and the ownership bit spares later writes the copy until the
// next Clone.
func (c *Cover) ownIn(v int32) {
	if c.claim(&c.inOwned, v) {
		cloneNode(c.dIn, c.tIn, v)
	}
}

// ownOut is ownIn for the out side.
func (c *Cover) ownOut(u int32) {
	if c.claim(&c.outOwned, u) {
		cloneNode(c.dOut, c.tOut, u)
	}
}

// claim reports whether node v's list on one side must be copied
// before a write, marking it owned. A segment-mode cover first takes
// its own copy of the delta and tombstone maps (list and set headers
// only).
func (c *Cover) claim(owned *graph.Bitset, v int32) bool {
	if !c.shared || owned.Has(int(v)) {
		return false
	}
	*owned = owned.Grow(c.N())
	owned.Set(int(v))
	if c.mapsShared {
		c.dIn, c.dOut = maps.Clone(c.dIn), maps.Clone(c.dOut)
		c.tIn, c.tOut = maps.Clone(c.tIn), maps.Clone(c.tOut)
		c.mapsShared = false
	}
	return true
}

func cloneNode(delta map[int32][]Entry, tombs map[int32]map[int32]struct{}, v int32) {
	if list, ok := delta[v]; ok {
		delta[v] = slices.Clone(list)
	}
	if dead, ok := tombs[v]; ok {
		tombs[v] = maps.Clone(dead)
	}
}

// Finish sorts and deduplicates all labels; builders call it once after
// bulk appends. It bypasses delta recording — maintenance keeps labels
// sorted through the mutator methods and never needs it.
func (c *Cover) Finish() {
	for i := range c.In {
		c.In[i] = sortDedupe(c.In[i])
		c.Out[i] = sortDedupe(c.Out[i])
	}
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
// list with c copy-on-write: both covers copy a list before their first
// write to it. Flat mode copies only the In/Out spines (O(n) slice
// headers); segment mode shares the sealed base and the delta and
// tombstone maps outright, so a clone costs O(1). Callers must
// serialize Clone against mutations of c, as for any mutation.
func (c *Cover) Clone() *Cover {
	c.shared, c.inOwned, c.outOwned = true, nil, nil
	cl := &Cover{WithDist: c.WithDist, shared: true}
	if c.base != nil {
		c.mapsShared = true
		cl.mapsShared = true
		cl.base, cl.nSeg, cl.sizeSeg = c.base, c.nSeg, c.sizeSeg
		cl.dIn, cl.dOut, cl.tIn, cl.tOut = c.dIn, c.dOut, c.tIn, c.tOut
		return cl
	}
	cl.In, cl.Out = slices.Clone(c.In), slices.Clone(c.Out)
	return cl
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
