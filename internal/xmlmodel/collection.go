package xmlmodel

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"

	"hopi/internal/graph"
)

// Link is an inter-document link between two global element IDs.
type Link struct {
	From int32
	To   int32
}

// Collection is the paper's X = (D, L): a set of documents plus the
// inter-document links between their elements. Global element IDs are
// assigned densely per document and stay stable when documents are
// removed (removal leaves a tombstone), so index labels never dangle.
//
// Links and the documents' intra links change only through AddLink,
// RemoveLink and RemoveDocument, which keep the per-element link
// adjacency that Walk, Reach, DocReach, Subgraph and LinksIntoPath
// follow in step with them.
type Collection struct {
	Docs []*Document
	// Links is the inter-document link table. It is read-only outside
	// xmlmodel: an entry appended to it directly gets no arcs, so no
	// walk, reach or deletion sees it.
	Links []Link

	// arcs[i] holds the links, intra and inter, that leave and enter
	// the elements of document i (nil: none).
	arcs   []*docArcs
	base   []int32 // base[i] = first global ID of document i
	alive  []bool
	byName map[string]int
	total  int32

	// Copy-on-write state. shared is set by Clone on both collections:
	// from then on the documents, their arcs, Links, alive and byName
	// may be the other collection's too. owned marks the fields and
	// ownDocs the documents (with their arcs) this collection has copied
	// since.
	shared  bool
	owned   ownFields
	ownDocs graph.Bitset
}

// ownFields names the shared fields a collection has copied.
type ownFields uint8

const (
	ownDocList ownFields = 1 << iota // Docs and arcs
	ownLinks
	ownAlive
	ownNames
)

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{byName: map[string]int{}}
}

// Clone returns a collection with the same documents, links and
// ID-allocation bookkeeping that shares all of them with c
// copy-on-write: each side's mutators copy what they are about to
// write (a document and its arcs, Links, alive, byName) on their first
// write after the Clone, so one side can be maintained while the other
// serves queries. Appends never copy: the clone's slices are clipped, so its
// appends reallocate, while c's land past the end of every clone.
// Clone costs O(1); callers serialize it against mutations of c.
func (c *Collection) Clone() *Collection {
	c.shared, c.owned, c.ownDocs = true, 0, nil
	return &Collection{
		Docs:   slices.Clip(c.Docs),
		Links:  slices.Clip(c.Links),
		arcs:   slices.Clip(c.arcs),
		base:   slices.Clip(c.base),
		alive:  slices.Clip(c.alive),
		byName: c.byName,
		total:  c.total,
		shared: true,
	}
}

// own reports whether field f must be copied before an in-place
// write, marking it owned.
func (c *Collection) own(f ownFields) bool {
	if !c.shared || c.owned&f != 0 {
		return false
	}
	c.owned |= f
	return true
}

// ownDocList readies the document and arc lists for an in-place write
// of an entry, copying both when they may be shared with a clone.
func (c *Collection) ownDocList() {
	if c.own(ownDocList) {
		c.Docs, c.arcs = slices.Clone(c.Docs), slices.Clone(c.arcs)
	}
}

// writableDoc returns document idx and its arcs ready for an in-place
// write of its links, copying both first when they may be shared with
// a clone.
func (c *Collection) writableDoc(idx int) (*Document, *docArcs) {
	if c.shared && !c.ownDocs.Has(idx) {
		c.ownDocList()
		c.Docs[idx] = c.Docs[idx].withOwnLinks()
		if a := c.arcs[idx]; a != nil {
			c.arcs[idx] = &docArcs{slices.Clone(a[outArcs]), slices.Clone(a[inArcs])}
		}
		c.ownDocs = c.ownDocs.Grow(len(c.Docs))
		c.ownDocs.Set(idx)
	}
	if c.arcs[idx] == nil {
		c.arcs[idx] = &docArcs{}
	}
	return c.Docs[idx], c.arcs[idx]
}

// AddDocument appends d and returns its document index. Global IDs
// [base, base+len) are assigned to its elements. The document is
// sealed here: from now on readers of the collection only read it.
func (c *Collection) AddDocument(d *Document) int {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	d.Seal()
	idx := len(c.Docs)
	c.Docs = append(c.Docs, d)
	c.arcs = append(c.arcs, nil)
	c.base = append(c.base, c.total)
	c.alive = append(c.alive, true)
	if c.shared {
		// no clone holds the new document or its arcs
		c.ownDocs = c.ownDocs.Grow(idx + 1)
		c.ownDocs.Set(idx)
	}
	for _, l := range d.IntraLinks {
		c.addArcs(idx, l[0], idx, l[1])
	}
	if d.Name != "" {
		if c.own(ownNames) {
			c.byName = maps.Clone(c.byName)
		}
		c.byName[d.Name] = idx
	}
	c.total += int32(d.Len())
	return idx
}

// RemoveDocument tombstones the document: its elements disappear from
// the element-level graph but its global IDs are never reused.
// Inter-document links touching the document are dropped.
func (c *Collection) RemoveDocument(idx int) {
	if !c.alive[idx] {
		return
	}
	if c.own(ownAlive) {
		c.alive = slices.Clone(c.alive)
	}
	c.alive[idx] = false
	if c.own(ownLinks) {
		c.Links = slices.Clone(c.Links)
	}
	c.Links = slices.DeleteFunc(c.Links, func(l Link) bool {
		fd, td := c.DocOfID(l.From), c.DocOfID(l.To)
		switch {
		case fd == idx && td == idx:
		case fd == idx:
			c.removeArc(td, inArcs, l.To, l.From)
		case td == idx:
			c.removeArc(fd, outArcs, l.From, l.To)
		default:
			return false
		}
		return true
	})
	if c.arcs[idx] != nil {
		c.ownDocList()
		c.arcs[idx] = nil
	}
	if name := c.Docs[idx].Name; name != "" {
		if c.own(ownNames) {
			c.byName = maps.Clone(c.byName)
		}
		delete(c.byName, name)
	}
}

// Alive reports whether the document has not been removed.
func (c *Collection) Alive(idx int) bool { return c.alive[idx] }

// NumDocs returns the number of live documents.
func (c *Collection) NumDocs() int {
	n := 0
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}

// NumElements returns the number of elements of live documents.
func (c *Collection) NumElements() int {
	n := 0
	for i, d := range c.Docs {
		if c.alive[i] {
			n += d.Len()
		}
	}
	return n
}

// NumAllocatedIDs returns the size of the global ID space including
// tombstoned documents; graphs over the collection use this as node
// count.
func (c *Collection) NumAllocatedIDs() int { return int(c.total) }

// NumLinks returns the number of links of live documents, intra plus
// inter (Table 1's "# links").
func (c *Collection) NumLinks() int {
	n := len(c.Links)
	for i, d := range c.Docs {
		if c.alive[i] {
			n += len(d.IntraLinks)
		}
	}
	return n
}

// DocByName returns the index of a named live document.
func (c *Collection) DocByName(name string) (int, bool) {
	i, ok := c.byName[name]
	return i, ok
}

// GlobalID maps (document index, local element index) to a global ID.
func (c *Collection) GlobalID(doc int, local int32) int32 {
	return c.base[doc] + local
}

// DocOfID is the paper's doc(v): the index of the document a global
// element ID belongs to.
func (c *Collection) DocOfID(id int32) int {
	i := sort.Search(len(c.base), func(i int) bool { return c.base[i] > id }) - 1
	return i
}

// LocalID converts a global ID to its document-local index.
func (c *Collection) LocalID(id int32) (doc int, local int32) {
	doc = c.DocOfID(id)
	return doc, id - c.base[doc]
}

// Tag returns the tag of a global element.
func (c *Collection) Tag(id int32) string {
	doc, local := c.LocalID(id)
	return c.Docs[doc].Elements[local].Tag
}

// AddLink records an inter-document link between two global IDs. It is
// the caller's responsibility that both endpoints are alive and in
// different documents; same-document pairs are stored as intra links.
// A degenerate self link (from == to) is dropped as a no-op after
// validation: it carries no connection, and every graph layer
// (Digraph, closure, cover) ignores self loops — storing it would
// only desync the collection from the index.
func (c *Collection) AddLink(from, to int32) error {
	fd, fl := c.LocalID(from)
	td, tl := c.LocalID(to)
	if !c.alive[fd] || !c.alive[td] {
		return fmt.Errorf("xmlmodel: link %d→%d touches a removed document", from, to)
	}
	if from == to {
		return nil
	}
	if fd == td {
		d, _ := c.writableDoc(fd)
		d.AddIntraLink(fl, tl)
	} else {
		c.Links = append(c.Links, Link{From: from, To: to})
	}
	c.addArcs(fd, fl, td, tl)
	return nil
}

// RemoveLink deletes a link (inter- or intra-document) between two
// global IDs. It reports whether a link was found. Tree edges cannot be
// removed this way — restructuring a document is a modification.
func (c *Collection) RemoveLink(from, to int32) bool {
	fd, fl := c.LocalID(from)
	td, tl := c.LocalID(to)
	if fd == td {
		i := slices.Index(c.Docs[fd].IntraLinks, [2]int32{fl, tl})
		if i < 0 {
			return false
		}
		d, _ := c.writableDoc(fd)
		d.IntraLinks = slices.Delete(d.IntraLinks, i, i+1)
	} else {
		i := slices.Index(c.Links, Link{From: from, To: to})
		if i < 0 {
			return false
		}
		if c.own(ownLinks) {
			c.Links = slices.Clone(c.Links)
		}
		c.Links = slices.Delete(c.Links, i, i+1)
	}
	c.removeArc(fd, outArcs, from, to)
	c.removeArc(td, inArcs, to, from)
	return true
}

// arc is one link seen from one of its ends: that end's local index in
// its document and the other end's global ID.
type arc struct{ local, other int32 }

// docArcs holds the links that leave (docArcs[outArcs]) and enter
// (docArcs[inArcs]) the elements of one document, each side sorted by
// local index; a link that appears twice has two arcs.
type docArcs [2][]arc

// The two sides of a docArcs.
const (
	outArcs = iota
	inArcs
)

// arcsOf returns the arcs of element local in a sorted arc list.
func arcsOf(arcs []arc, local int32) []arc {
	i, j := 0, len(arcs) // → first arc of local or past it
	for i < j {
		if m := int(uint(i+j) >> 1); arcs[m].local < local {
			i = m + 1
		} else {
			j = m
		}
	}
	for j = i; j < len(arcs) && arcs[j].local == local; {
		j++
	}
	return arcs[i:j]
}

// arcList returns one side of document doc's arcs ready for an
// in-place write.
func (c *Collection) arcList(doc, side int) *[]arc {
	_, a := c.writableDoc(doc)
	return &a[side]
}

// addArcs records the link from local element fl of document fd to
// local element tl of document td at both of its ends. A self link
// carries no connection and gets no arcs.
func (c *Collection) addArcs(fd int, fl int32, td int, tl int32) {
	if fd == td && fl == tl {
		return
	}
	c.insertArc(fd, outArcs, fl, c.base[td]+tl)
	c.insertArc(td, inArcs, tl, c.base[fd]+fl)
}

// insertArc records the arc of local element local of document doc
// toward other on one side, after the element's other arcs.
func (c *Collection) insertArc(doc, side int, local, other int32) {
	list := c.arcList(doc, side)
	i := sort.Search(len(*list), func(i int) bool { return (*list)[i].local > local })
	*list = slices.Insert(*list, i, arc{local, other})
}

// removeArc drops one arc of element id toward other from one side of
// document doc; a missing arc is a no-op.
func (c *Collection) removeArc(doc, side int, id, other int32) {
	if c.arcs[doc] == nil {
		return
	}
	i := slices.Index(c.arcs[doc][side], arc{id - c.base[doc], other})
	if i < 0 {
		return
	}
	list := c.arcList(doc, side)
	*list = slices.Delete(*list, i, i+1)
}

// Walk yields the elements that a path of G_E(X) of length ≥ 1 leads
// to from element id, or, backward, leads from to id, each with the
// length of the shortest such path: graph.Walk over the tree edges and
// links of live documents, read from the collection itself. id comes
// out only when it lies on a cycle. An element of a removed document
// reaches nothing.
func (c *Collection) Walk(id int32, backward bool) iter.Seq2[int32, uint32] {
	return func(yield func(int32, uint32) bool) {
		graph.Walk(int(c.total), id, c.edges(backward))(yield)
	}
}

// Reach returns the elements that a path of G_E(X) of length ≥ 1 leads
// to from any of ids, or, backward, leads from to any of them: the
// nodes of Walk from every id at once, without hop counts. An id is in
// it only when such a path reaches it.
func (c *Collection) Reach(ids []int32, backward bool) graph.Bitset {
	return graph.Reach(int(c.total), ids, c.edges(backward))
}

// Subgraph returns the subgraph of G_E(X) induced by nodes, which must
// not repeat: node i of it is element nodes[i], and its edges are the
// tree edges and links between them.
func (c *Collection) Subgraph(nodes []int32) *graph.Digraph {
	local := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		local[v] = int32(i)
	}
	sub := graph.NewDigraph(len(nodes))
	next := c.edges(false)
	for i, v := range nodes {
		next(v, func(w int32) {
			if lw, ok := local[w]; ok {
				sub.AddEdge(int32(i), lw)
			}
		})
	}
	return sub
}

// LinksIntoPath yields the links, intra and inter, that enter element
// id or one of its tree ancestors: for each link s → t, its source s
// and the number of tree edges from t down to id. id's own incoming
// links come first (at 0), then its parent's, up to the root. Tree
// edges only lead down, so every path of length ≥ 1 from id back to
// itself ends with one of these links and the tree path from t down
// to id. An element of a removed document yields nothing.
func (c *Collection) LinksIntoPath(id int32) iter.Seq2[int32, uint32] {
	return func(yield func(int32, uint32) bool) {
		if id < 0 || id >= c.total {
			return
		}
		doc := c.DocOfID(id)
		a := c.arcs[doc]
		if !c.alive[doc] || a == nil {
			return
		}
		els, down := c.Docs[doc].Elements, uint32(0)
		for t := id - c.base[doc]; t >= 0; t = els[t].Parent {
			for _, e := range arcsOf(a[inArcs], t) {
				if !yield(e.other, down) {
					return
				}
			}
			down++
		}
	}
}

// edges is the neighbour function of G_E(X) for graph.Walk and
// graph.Reach: it visits the elements one tree edge or link leads to
// from v (backward: leads from to v). An element of a removed document
// has none.
func (c *Collection) edges(backward bool) func(v int32, visit func(int32)) {
	// the document last looked up and its ID range [base, end): a
	// traversal expands runs of one document's elements
	doc, base, end := -1, int32(0), int32(0)
	return func(v int32, visit func(int32)) {
		if v < base || v >= end {
			if v < 0 || v >= c.total {
				return
			}
			doc = c.DocOfID(v)
			base = c.base[doc]
			end = base + int32(c.Docs[doc].Len())
		}
		if !c.alive[doc] {
			return
		}
		d, local, side := c.Docs[doc], v-base, outArcs
		if backward {
			if p := d.Elements[local].Parent; p >= 0 {
				visit(base + p)
			}
			side = inArcs
		} else {
			for _, k := range d.Children[local] {
				visit(base + k)
			}
		}
		if a := c.arcs[doc]; a != nil {
			for _, e := range arcsOf(a[side], local) {
				visit(e.other)
			}
		}
	}
}

// DocReach returns the documents that a path of G_D(X) of length ≥ 1
// leads to from any of docs, or, backward, leads from to any of them,
// through the documents at the far ends of their link arcs. Document
// skip (-1: none) is left out, as if its edges were removed; a document
// is in the result only when such a path reaches it.
func (c *Collection) DocReach(docs []int32, backward bool, skip int) graph.Bitset {
	side := outArcs
	if backward {
		side = inArcs
	}
	return graph.Reach(len(c.Docs), docs, func(d int32, visit func(int32)) {
		if int(d) == skip || c.arcs[d] == nil {
			return
		}
		for _, e := range c.arcs[d][side] {
			if o := c.DocOfID(e.other); o != int(d) && o != skip {
				visit(int32(o))
			}
		}
	})
}

// AddLinkByAnchor records a link from a source element to the element
// of the target document carrying the given anchor id ("" targets the
// document root) — the XLink/XPointer case.
func (c *Collection) AddLinkByAnchor(fromDoc int, fromLocal int32, targetDoc, anchor string) error {
	ti, ok := c.DocByName(targetDoc)
	if !ok {
		return fmt.Errorf("xmlmodel: link target document %q not found", targetDoc)
	}
	var tl int32
	if anchor != "" {
		tl, ok = c.Docs[ti].AnchorElement(anchor)
		if !ok {
			return fmt.Errorf("xmlmodel: anchor %q not found in %q", anchor, targetDoc)
		}
	}
	return c.AddLink(c.GlobalID(fromDoc, fromLocal), c.GlobalID(ti, tl))
}

// ElementGraph builds G_E(X): nodes are all allocated global IDs
// (tombstoned documents contribute isolated nodes), edges are
// parent→child tree edges, intra-document links and inter-document
// links of live documents.
func (c *Collection) ElementGraph() *graph.Digraph {
	g := graph.NewDigraph(int(c.total))
	for i, d := range c.Docs {
		if !c.alive[i] {
			continue
		}
		base := c.base[i]
		for local := 1; local < d.Len(); local++ {
			g.AddEdge(base+d.Elements[local].Parent, base+int32(local))
		}
		for _, l := range d.IntraLinks {
			g.AddEdge(base+l[0], base+l[1])
		}
	}
	for _, l := range c.Links {
		g.AddEdge(l.From, l.To)
	}
	return g
}

// DocGraph builds G_D(X): one node per document (tombstones isolated),
// an edge (di, dj) for every pair of documents connected by at least
// one link, and the link multiplicities as edge weights (the old
// partitioner's edge weight, §3.3).
func (c *Collection) DocGraph() (*graph.Digraph, map[[2]int32]int) {
	g := graph.NewDigraph(len(c.Docs))
	w := map[[2]int32]int{}
	for _, l := range c.Links {
		di := int32(c.DocOfID(l.From))
		dj := int32(c.DocOfID(l.To))
		g.AddEdge(di, dj)
		w[[2]int32{di, dj}]++
	}
	return g, w
}

// ApproxXMLBytes estimates the serialized size of the live collection;
// it backs the "size" column of Table 1 for synthetic collections.
func (c *Collection) ApproxXMLBytes() int64 {
	var n int64
	for i, d := range c.Docs {
		if !c.alive[i] {
			continue
		}
		for _, e := range d.Elements {
			// "<tag>" + "</tag>" + a little content/attribute slack
			n += int64(2*len(e.Tag)) + 5 + 12
		}
		n += int64(len(d.IntraLinks)) * 16
	}
	n += int64(len(c.Links)) * 32
	return n
}

// ElementsByTag returns, for each tag, the sorted global IDs of live
// elements carrying it; the path-query evaluator builds on this.
func (c *Collection) ElementsByTag() map[string][]int32 {
	m := map[string][]int32{}
	for i, d := range c.Docs {
		if !c.alive[i] {
			continue
		}
		base := c.base[i]
		for local, e := range d.Elements {
			m[e.Tag] = append(m[e.Tag], base+int32(local))
		}
	}
	for _, ids := range m {
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}
	return m
}

// DocIDs returns the global IDs of all elements of a document.
func (c *Collection) DocIDs(idx int) []int32 {
	d := c.Docs[idx]
	ids := make([]int32, d.Len())
	for i := range ids {
		ids[i] = c.base[idx] + int32(i)
	}
	return ids
}

// LiveDocIndexes returns the indexes of all live documents.
func (c *Collection) LiveDocIndexes() []int {
	var out []int
	for i, a := range c.alive {
		if a {
			out = append(out, i)
		}
	}
	return out
}
