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
type Cover struct {
	In  [][]Entry
	Out [][]Entry
	// WithDist records whether Dist fields are meaningful.
	WithDist bool

	// rec, when set, observes every effective label mutation made
	// through the mutator methods; see SetRecorder in delta.go.
	rec func(CoverDelta)

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
	if c.base != nil {
		if c.segAdd(c.dIn, c.tIn, segment.FamLin, v, center, dist) {
			c.emit(DeltaAddIn, v, center, dist)
		}
		return
	}
	var changed bool
	c.In[v], changed = addEntry(c.In[v], center, dist)
	if changed {
		c.emit(DeltaAddIn, v, center, dist)
	}
}

// AddOut inserts center into Lout(u); see AddIn for semantics.
func (c *Cover) AddOut(u, center int32, dist uint32) {
	if u == center {
		return
	}
	if c.base != nil {
		if c.segAdd(c.dOut, c.tOut, segment.FamLout, u, center, dist) {
			c.emit(DeltaAddOut, u, center, dist)
		}
		return
	}
	var changed bool
	c.Out[u], changed = addEntry(c.Out[u], center, dist)
	if changed {
		c.emit(DeltaAddOut, u, center, dist)
	}
}

// addEntry inserts or min-merges an entry, reporting whether the list
// actually changed (new center, or an existing one got closer).
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

// Clone returns a deep copy. In segment mode the immutable base is
// shared and only the delta maps are copied — an O(delta) snapshot
// instead of O(|L|).
func (c *Cover) Clone() *Cover {
	if c.base != nil {
		cl := &Cover{
			WithDist: c.WithDist,
			base:     c.base,
			dIn:      cloneDelta(c.dIn),
			dOut:     cloneDelta(c.dOut),
			tIn:      cloneTombs(c.tIn),
			tOut:     cloneTombs(c.tOut),
			nSeg:     c.nSeg,
			sizeSeg:  c.sizeSeg,
		}
		return cl
	}
	n := c.N()
	cl := NewCover(n, c.WithDist)
	for i := 0; i < n; i++ {
		cl.In[i] = append([]Entry(nil), c.In[i]...)
		cl.Out[i] = append([]Entry(nil), c.Out[i]...)
	}
	return cl
}

func cloneDelta(m map[int32][]Entry) map[int32][]Entry {
	out := make(map[int32][]Entry, len(m))
	for v, list := range m {
		out[v] = append([]Entry(nil), list...)
	}
	return out
}

func cloneTombs(m map[int32]map[int32]struct{}) map[int32]map[int32]struct{} {
	out := make(map[int32]map[int32]struct{}, len(m))
	for v, set := range m {
		s := make(map[int32]struct{}, len(set))
		for c := range set {
			s[c] = struct{}{}
		}
		out[v] = s
	}
	return out
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
// distance matrix: Distance(u,v) must equal the BFS distance for every
// pair (InfDist for unreachable pairs).
func VerifyDistance(c *Cover, dm *graph.DistanceMatrix) error {
	n := len(dm.Dist)
	if c.N() != n {
		return fmt.Errorf("twohop: cover over %d nodes, matrix over %d", c.N(), n)
	}
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			want := dm.D(u, v)
			if got := c.Distance(u, v); got != want {
				return fmt.Errorf("twohop: Distance(%d,%d) = %d, want %d", u, v, got, want)
			}
		}
	}
	return nil
}
