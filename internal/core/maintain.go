package core

import (
	"fmt"

	"hopi/internal/graph"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// InsertEdge adds a link between two existing elements (intra- or
// inter-document) and updates the cover with the §6.1 / §3.3 method:
// the link target becomes the center of every newly created connection.
func (ix *Index) InsertEdge(from, to int32) error {
	if err := ix.coll.AddLink(from, to); err != nil {
		return err
	}
	if from == to {
		// A validated self link carries no connection (the element
		// graph drops self loops; AddLink stored nothing), and
		// integrating it would fabricate +1-length paths through a
		// nonexistent edge, breaking distance exactness. Dropped as a
		// no-op — the same documented rule ModifyDocument applies.
		return nil
	}
	ix.recordColl(CollOp{Kind: CollAddLink, From: from, To: to})
	// The walks see the new link, but it changes no shortest path into
	// from or out of to, so they find the ancestors and descendants the
	// cover had, at the distances it had.
	ix.cover.IntegrateLink(from, to, ix.coll.Walk(from, true), ix.coll.Walk(to, false))
	return nil
}

// InsertDocument adds a new document and returns its index. Following
// §6.1, the document is treated as a new partition: a 2-hop cover is
// computed for it in isolation and unioned into the global cover. Links
// to and from the new document are added afterwards with InsertEdge.
func (ix *Index) InsertDocument(d *xmlmodel.Document) (int, error) {
	docIdx := ix.coll.AddDocument(d)
	if ix.log != nil {
		// Snapshot the document now: later ops in the same batch may
		// mutate it in place (an intra-document AddLink appends to
		// d.IntraLinks), and those mutations are recorded as their own
		// ops — a live alias would encode them twice at commit time.
		ix.recordColl(CollOp{Kind: CollAddDoc, Doc: d.Clone()})
	}
	ix.cover.Grow(ix.coll.NumAllocatedIDs())

	// cover for the document's own element-level graph
	cov := ix.coverOf(docGraph(d))
	base := ix.coll.GlobalID(docIdx, 0)
	for local := int32(0); local < int32(d.Len()); local++ {
		for _, e := range cov.Out[local] {
			ix.cover.AddOut(base+local, base+e.Center, e.Dist)
		}
		for _, e := range cov.In[local] {
			ix.cover.AddIn(base+local, base+e.Center, e.Dist)
		}
	}
	return docIdx, nil
}

func docGraph(d *xmlmodel.Document) *graph.Digraph {
	g := graph.NewDigraph(d.Len())
	for local := 1; local < d.Len(); local++ {
		g.AddEdge(d.Elements[local].Parent, int32(local))
	}
	for _, l := range d.IntraLinks {
		g.AddEdge(l[0], l[1])
	}
	return g
}

// coverOf builds a fresh 2-hop cover for g, distance-aware when the
// index is.
func (ix *Index) coverOf(g *graph.Digraph) *twohop.Cover {
	opts := twohop.Options{Seed: ix.opts.Seed}
	if ix.cover.WithDist {
		cov, _ := twohop.BuildDistanceAware(graph.NewDistClosure(g), opts)
		return cov
	}
	cov, _ := twohop.Build(graph.NewClosure(g), opts)
	return cov
}

// Separates implements the §6.2 test: document di separates the
// document-level graph iff every path from an ancestor document to a
// descendant document runs through di.
func (ix *Index) Separates(docIdx int) bool {
	sep, _, _ := ix.separation(docIdx)
	return sep
}

// separation runs the Separates test with walks over the collection's
// link arcs and returns, beside its verdict, the ancestor and
// descendant documents of di in G_D(X), di itself left out. The test is
// one multi-source traversal from the ancestors with di removed.
func (ix *Index) separation(docIdx int) (sep bool, ancDocs, descDocs graph.Bitset) {
	di := []int32{int32(docIdx)}
	ancDocs = ix.coll.DocReach(di, true, -1)
	descDocs = ix.coll.DocReach(di, false, -1)
	ancDocs.Clear(docIdx)
	descDocs.Clear(docIdx)
	if ancDocs.Empty() || descDocs.Empty() {
		return true, ancDocs, descDocs
	}
	// A document that is both ancestor and descendant (a document-level
	// cycle through di) is connected to itself without di, so di cannot
	// separate.
	if ancDocs.Intersects(descDocs) {
		return false, ancDocs, descDocs
	}
	reach := ix.coll.DocReach(ancDocs.Elements(nil), false, docIdx)
	return !reach.Intersects(descDocs), ancDocs, descDocs
}

// DeleteDocument removes a document and updates the cover. When the
// document separates the document-level graph the Theorem 2 fast path
// applies (label filtering only); otherwise the general Theorem 3
// algorithm partially recomputes the closure. It returns whether the
// fast path was taken.
func (ix *Index) DeleteDocument(docIdx int) (bool, error) {
	if !ix.coll.Alive(docIdx) {
		return false, fmt.Errorf("core: document %d already removed", docIdx)
	}
	if sep, ancDocs, descDocs := ix.separation(docIdx); sep {
		ix.deleteSeparating(docIdx, ancDocs, descDocs)
		return true, nil
	}
	ix.deleteGeneral(docIdx)
	return false, nil
}

// deleteSeparating is the Theorem 2 fast path:
//
//	for all a ∈ VA: L'out(a) := Lout(a) \ (Vdi ∪ VD)
//	for all d ∈ VD: L'in(d)  := Lin(d)  \ (Vdi ∪ VA)
//
// where VA/VD are the elements of the ancestor/descendant documents
// ancDocs/descDocs of di in the document-level graph, and Vdi the
// elements of di itself.
func (ix *Index) deleteSeparating(docIdx int, ancDocs, descDocs graph.Bitset) {
	n := ix.coll.NumAllocatedIDs()
	vdi := graph.NewBitset(n)
	for _, id := range ix.coll.DocIDs(docIdx) {
		vdi.Set(int(id))
	}
	va := elementSet(ix.coll, ancDocs, n)
	vd := elementSet(ix.coll, descDocs, n)

	dropOut := vdi.Clone()
	dropOut.Or(vd)
	inDropOut := func(center int32) bool { return dropOut.Has(int(center)) }
	va.ForEach(func(a int) bool {
		ix.cover.FilterOut(int32(a), inDropOut)
		return true
	})
	dropIn := vdi.Clone()
	dropIn.Or(va)
	inDropIn := func(center int32) bool { return dropIn.Has(int(center)) }
	vd.ForEach(func(d int) bool {
		ix.cover.FilterIn(int32(d), inDropIn)
		return true
	})
	// the document's own labels disappear with it
	vdi.ForEach(func(v int) bool {
		ix.cover.ClearOut(int32(v))
		ix.cover.ClearIn(int32(v))
		return true
	})
	ix.coll.RemoveDocument(docIdx)
	ix.recordColl(CollOp{Kind: CollRemoveDoc, DocIdx: docIdx})
}

func elementSet(c *xmlmodel.Collection, docs graph.Bitset, n int) graph.Bitset {
	s := graph.NewBitset(n)
	docs.ForEach(func(di int) bool {
		if c.Alive(di) {
			for _, id := range c.DocIDs(di) {
				s.Set(int(id))
			}
		}
		return true
	})
	return s
}

// deleteGeneral is the Theorem 3 algorithm for documents that do not
// separate the document-level graph:
//
//  1. Adi := element-level ancestors of VE(di) (including VE(di)),
//     Ddi := element-level descendants,
//  2. remove the document, recompute the partial closure Ĉ with rows
//     for every a ∈ Adi in the remaining graph, and build a fresh
//     2-hop cover L̂ for it,
//  3. splice: L'out(a) := L̂out(a) for a ∈ Adi,
//     L'in(d) := (Lin(d) \ Adi) ∪ L̂in(d) for d ∈ Ddi.
func (ix *Index) deleteGeneral(docIdx int) {
	vdi := ix.coll.DocIDs(docIdx)
	vdiSet := graph.NewBitset(ix.coll.NumAllocatedIDs())
	for _, v := range vdi {
		vdiSet.Set(int(v))
	}
	// ancestors/descendants of the document's elements (element level)
	adi := ix.coll.Reach(vdi, true)
	ddi := ix.coll.Reach(vdi, false)
	adi.Or(vdiSet)
	ddi.Or(vdiSet)

	ix.coll.RemoveDocument(docIdx)
	ix.recordColl(CollOp{Kind: CollRemoveDoc, DocIdx: docIdx})

	// Splice per Theorem 3: L' := L ∪ L̂, except
	//   L'out(a) := L̂out(a)                 for a ∈ Adi, and
	//   L'in(d)  := (Lin(d) \ Adi) ∪ L̂in(d) for d ∈ Ddi.
	// L̂ covers the region the surviving ancestors reach.
	survivors := adi.Clone()
	survivors.AndNot(vdiSet)
	hat, globals := ix.regionCover(survivors)
	ix.spliceHat(hat, globals, survivors, adi, ddi, vdiSet)
	// rows of the deleted document vanish
	for _, v := range vdi {
		ix.cover.ClearOut(v)
		ix.cover.ClearIn(v)
	}
}

// regionCover builds a fresh cover for the part of the collection that
// sources reach, sources included, and returns it with the global ID of
// each of its nodes, ascending.
func (ix *Index) regionCover(sources graph.Bitset) (*twohop.Cover, []int32) {
	region := ix.coll.Reach(sources.Elements(nil), false)
	region.Or(sources)
	globals := region.Elements(nil)
	return ix.coverOf(ix.coll.Subgraph(globals)), globals
}

// spliceHat merges a freshly computed regional cover into the global
// one. replaceOut lists the nodes whose Lout is replaced wholesale;
// distrust is the center set stripped from the Lin labels of filterIn
// nodes; skip marks nodes whose labels are about to be dropped anyway.
func (ix *Index) spliceHat(hat *twohop.Cover, globals []int32,
	replaceOut, distrust, filterIn, skip graph.Bitset) {

	// In-label filtering applies to all filterIn nodes, whether or not
	// they lie in the recomputed region.
	filterIn.ForEach(func(d int) bool {
		if skip != nil && skip.Has(d) {
			return true
		}
		ix.cover.FilterIn(int32(d), func(center int32) bool { return distrust.Has(int(center)) })
		return true
	})
	remap := func(entries []twohop.Entry) []twohop.Entry {
		out := make([]twohop.Entry, len(entries))
		for i, e := range entries {
			out[i] = twohop.Entry{Center: globals[e.Center], Dist: e.Dist}
		}
		return out
	}
	// The baseline union L ∪ L̂ over the region, with the Out
	// replacement for the distrusted ancestors.
	for i, gid := range globals {
		if replaceOut.Has(int(gid)) {
			ix.cover.SetOut(gid, remap(hat.Out[i]))
		} else {
			for _, e := range hat.Out[i] {
				ix.cover.AddOut(gid, globals[e.Center], e.Dist)
			}
		}
		for _, e := range hat.In[i] {
			ix.cover.AddIn(gid, globals[e.Center], e.Dist)
		}
	}
}

// DeleteEdge removes a link (intra- or inter-document) and repairs the
// cover with the edge analogue of Theorem 3: recompute the out-labels
// of every ancestor of the link source and strip distrusted centers
// from the in-labels of every descendant of the link target.
func (ix *Index) DeleteEdge(from, to int32) error {
	if !ix.coll.RemoveLink(from, to) {
		return fmt.Errorf("core: link %d→%d not found", from, to)
	}
	ix.recordColl(CollOp{Kind: CollRemoveLink, From: from, To: to})

	// A := ancestors of the source (incl.), D := descendants of the
	// target (incl.). Both are taken after the removal, and both are
	// what they were before it: a path a→*from or to→*d that used
	// from→to would revisit from or to, so a shorter one exists that
	// does not.
	aSet := ix.coll.Reach([]int32{from}, true)
	aSet.Set(int(from))
	dSet := ix.coll.Reach([]int32{to}, false)
	dSet.Set(int(to))
	hat, globals := ix.regionCover(aSet)
	ix.spliceHat(hat, globals, aSet, aSet, dSet, nil)
	return nil
}

// ModifyDocument replaces a document (§6.3): the old version is
// dropped with DeleteDocument and the new version inserted with
// InsertDocument. Saved links are re-attached with *both* endpoints
// remapped: an endpoint inside the replaced document moves to the same
// local element when it still exists in the new version (else to the
// root), an endpoint outside keeps its global ID. This covers links
// recorded in the collection's link table whose two ends both lie in
// the replaced document — re-attaching such a link by the other end's
// old global ID would resolve to the tombstoned old version and link
// the wrong element or fail mid-batch. A link whose endpoints collapse
// onto the same element after the root fallback is dropped (documented
// rule: a degenerate self link carries no connection). It returns the
// new document index.
func (ix *Index) ModifyDocument(docIdx int, newDoc *xmlmodel.Document) (int, error) {
	if !ix.coll.Alive(docIdx) {
		return 0, fmt.Errorf("core: document %d already removed", docIdx)
	}
	base := ix.coll.GlobalID(docIdx, 0)
	// savedLink keeps each endpoint either as a local index into the
	// replaced document (inside == true) or as a stable global ID.
	type endpoint struct {
		inside bool
		id     int32 // local index when inside, global ID otherwise
	}
	type savedLink struct {
		from, to endpoint
	}
	saveEnd := func(id int32) endpoint {
		if ix.coll.DocOfID(id) == docIdx {
			return endpoint{inside: true, id: id - base}
		}
		return endpoint{id: id}
	}
	var saved []savedLink
	for _, l := range ix.coll.Links {
		if ix.coll.DocOfID(l.From) == docIdx || ix.coll.DocOfID(l.To) == docIdx {
			saved = append(saved, savedLink{from: saveEnd(l.From), to: saveEnd(l.To)})
		}
	}
	if _, err := ix.DeleteDocument(docIdx); err != nil {
		return 0, err
	}
	newIdx, err := ix.InsertDocument(newDoc)
	if err != nil {
		return 0, err
	}
	resolve := func(e endpoint) int32 {
		if !e.inside {
			return e.id
		}
		local := e.id
		if int(local) >= newDoc.Len() {
			local = 0 // fall back to the root
		}
		return ix.coll.GlobalID(newIdx, local)
	}
	for _, s := range saved {
		from, to := resolve(s.from), resolve(s.to)
		if from == to {
			continue // both ends collapsed onto one element: drop
		}
		if err := ix.InsertEdge(from, to); err != nil {
			return 0, err
		}
	}
	return newIdx, nil
}

// Rebuild recomputes the index from scratch with its original options —
// the "occasional rebuilds" of §6 that restore space efficiency after
// many updates.
func (ix *Index) Rebuild() error {
	fresh, err := Build(ix.coll, ix.opts)
	if err != nil {
		return err
	}
	ix.cover.SetRecorder(nil)
	ix.cover = fresh.cover
	ix.stats = fresh.stats
	if ix.log != nil {
		// The delta streams cannot express a wholesale cover swap; mark
		// the log so durable commit persists a full snapshot instead.
		// Re-attaching the dispatcher below keeps recording on the new
		// cover for the rest of the batch.
		ix.log.Rebuilt = true
	}
	ix.cover.SetRecorder(ix.observeDelta)
	return nil
}
