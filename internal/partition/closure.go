package partition

import (
	"math/bits"
	"sort"

	"hopi/internal/graph"
	"hopi/internal/xmlmodel"
)

// LinkIndex lists, per document, the inter-document links touching it,
// each with both endpoint documents resolved. It is built once per
// build so that neither the partitioner nor ElementSubgraph rescans
// c.Links (and re-resolves every endpoint) for each partition.
type LinkIndex struct {
	c     *xmlmodel.Collection
	byDoc [][]docLink // in c.Links order
}

type docLink struct {
	xmlmodel.Link
	fromDoc, toDoc int
}

// NewLinkIndex indexes c.Links by document.
func NewLinkIndex(c *xmlmodel.Collection) *LinkIndex {
	// A dense element→document table beats two binary searches per link.
	docOf := make([]int, c.NumAllocatedIDs())
	for d, doc := range c.Docs {
		base := c.GlobalID(d, 0)
		for i := range doc.Elements {
			docOf[base+int32(i)] = d
		}
	}
	ix := &LinkIndex{c: c, byDoc: make([][]docLink, len(c.Docs))}
	for _, l := range c.Links {
		dl := docLink{l, docOf[l.From], docOf[l.To]}
		ix.byDoc[dl.fromDoc] = append(ix.byDoc[dl.fromDoc], dl)
		ix.byDoc[dl.toDoc] = append(ix.byDoc[dl.toDoc], dl)
	}
	return ix
}

// ElementSubgraph builds the element-level graph of a partition: the
// elements of the given documents with tree edges, intra-document
// links, and the inter-document links that stay inside the document
// set. It returns the graph over local indices plus the local→global
// ID mapping (sorted ascending). A document's elements are contiguous
// in both ID spaces, so a local index is its document's local base
// plus the element's offset.
func (ix *LinkIndex) ElementSubgraph(docs []int) (*graph.Digraph, []int32) {
	c := ix.c
	sorted := append([]int(nil), docs...)
	sort.Ints(sorted)
	bases := make([]int32, len(sorted)) // local index of each document's root
	var globals []int32
	for i, d := range sorted {
		bases[i] = int32(len(globals))
		globals = append(globals, c.DocIDs(d)...)
	}
	g := graph.NewDigraph(len(globals))
	for i, di := range sorted {
		d := c.Docs[di]
		base := bases[i]
		for li := 1; li < d.Len(); li++ {
			g.AddEdge(base+d.Elements[li].Parent, base+int32(li))
		}
		for _, l := range d.IntraLinks {
			g.AddEdge(base+l[0], base+l[1])
		}
		for _, l := range ix.byDoc[di] {
			if l.fromDoc != di {
				continue // an incoming link is added from its source document
			}
			if j := sort.SearchInts(sorted, l.toDoc); j < len(sorted) && sorted[j] == l.toDoc {
				g.AddEdge(base+l.From-c.GlobalID(di, 0), bases[j]+l.To-c.GlobalID(l.toDoc, 0))
			}
		}
	}
	return g, globals
}

// ElementSubgraph is LinkIndex.ElementSubgraph for callers that need
// one subgraph and have no index to share.
func ElementSubgraph(c *xmlmodel.Collection, docs []int) (*graph.Digraph, []int32) {
	return NewLinkIndex(c).ElementSubgraph(docs)
}

// closureState is the transitive closure of the partition being grown,
// maintained edge by edge (§4.3: the closure is computed "while
// incrementally building the partition"). Row x is the bitset of
// partition-local elements reachable from x by a non-empty path; a set
// diagonal bit therefore means "x lies on a cycle" and is not a
// connection. Local indices follow insertion order: a document's
// elements are contiguous from base[doc].
type closureState struct {
	c     *xmlmodel.Collection
	links *LinkIndex
	base  []int32 // document → local index of its root, -1 outside the partition

	n      int      // elements in the partition
	stride int      // words per row
	rows   []uint64 // row x is rows[x*stride : (x+1)*stride]
	conns  int64    // Σ_x |row x \ {x}|, the closure size the budget limits
}

func newClosureState(c *xmlmodel.Collection) *closureState {
	s := &closureState{c: c, links: NewLinkIndex(c), base: make([]int32, len(c.Docs))}
	s.reset()
	return s
}

// reset empties the state for the next partition, keeping its buffers.
func (s *closureState) reset() {
	for d := range s.base {
		s.base[d] = -1
	}
	clear(s.rows[:s.n*s.stride])
	s.n, s.conns = 0, 0
}

func (s *closureState) row(x int32) graph.Bitset {
	return s.rows[int(x)*s.stride : (int(x)+1)*s.stride]
}

// reserve makes room for n elements. Rows widen by doubling and their
// number grows by half, so repeated additions copy amortized O(1) each.
func (s *closureState) reserve(n int) {
	stride := max(s.stride, 1)
	for stride*64 < n {
		stride *= 2
	}
	if stride == s.stride && n*stride <= len(s.rows) {
		return
	}
	rows := make([]uint64, max(n, s.n+s.n/2)*stride)
	for x := 0; x < s.n; x++ {
		copy(rows[x*stride:], s.row(int32(x)))
	}
	s.rows, s.stride = rows, stride
}

// addDoc adds a document to the partition: its tree, its intra links
// and its links to and from the documents already there (itself
// included, now that base[di] is set).
func (s *closureState) addDoc(di int) {
	d := s.c.Docs[di]
	s.reserve(s.n + d.Len())
	base := int32(s.n)
	s.base[di] = base
	s.n += d.Len()
	// A new leaf has an empty row and no link reaches its document yet,
	// so a tree edge adds exactly one bit to each tree ancestor.
	for li := 1; li < d.Len(); li++ {
		for a := d.Elements[li].Parent; a >= 0; a = d.Elements[a].Parent {
			s.row(base + a).Set(int(base) + li)
			s.conns++
		}
	}
	for _, l := range d.IntraLinks {
		s.addEdge(base+l[0], base+l[1])
	}
	for _, l := range s.links.byDoc[di] {
		if fb, tb := s.base[l.fromDoc], s.base[l.toDoc]; fb >= 0 && tb >= 0 {
			s.addEdge(fb+l.From-s.c.GlobalID(l.fromDoc, 0), tb+l.To-s.c.GlobalID(l.toDoc, 0))
		}
	}
}

// addEdge inserts u→v: every x that reaches u (and u itself) now also
// reaches v and everything v reaches, which is exact with or without
// cycles. Nothing changes if u already reaches v.
func (s *closureState) addEdge(u, v int32) {
	if u == v || s.row(u).Has(int(v)) {
		return
	}
	reachV := s.row(v)[:(s.n+63)/64]
	for x := int32(0); x < int32(s.n); x++ {
		r := s.row(x)
		if x != u && !r.Has(int(u)) {
			continue
		}
		onCycle := r.Has(int(x))
		for i, w := range reachV { // a no-op on v's own row
			if nw := w &^ r[i]; nw != 0 {
				r[i] |= nw
				s.conns += int64(bits.OnesCount64(nw))
			}
		}
		if !r.Has(int(v)) {
			r.Set(int(v))
			s.conns++
		}
		if !onCycle && r.Has(int(x)) {
			s.conns-- // the new diagonal bit is a cycle marker, not a connection
		}
	}
}
