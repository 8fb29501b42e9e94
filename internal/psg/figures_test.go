package psg

import (
	"testing"

	"hopi/internal/graph"
	"hopi/internal/partition"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// fig1Collection rebuilds the running example of Fig. 1: three
// documents whose elements are connected by tree edges, one
// intra-document link and inter-document links forming a cycle
// d1 → d2 → d3 → d1.
func fig1Collection(t testing.TB) *xmlmodel.Collection {
	t.Helper()
	c := xmlmodel.NewCollection()
	d1 := xmlmodel.NewDocument("d1", "a")
	b1 := d1.AddElement(0, "b")
	d1.AddElement(b1, "c")
	d1.AddElement(0, "d")
	d2 := xmlmodel.NewDocument("d2", "a")
	b2 := d2.AddElement(0, "b")
	d2.AddElement(b2, "c")
	d2.AddIntraLink(2, 0)
	d3 := xmlmodel.NewDocument("d3", "a")
	d3.AddElement(0, "b")
	c.AddDocument(d1)
	c.AddDocument(d2)
	c.AddDocument(d3)
	mustLink := func(fd int, fl int32, td int, tl int32) {
		if err := c.AddLink(c.GlobalID(fd, fl), c.GlobalID(td, tl)); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(0, 2, 1, 0) // d1/c → d2 root
	mustLink(1, 2, 2, 0) // d2/c → d3 root
	mustLink(2, 1, 0, 3) // d3/b → d1/d
	return c
}

// TestFigure2LinkIntegration checks the Fig. 2 rule: integrating the
// link u→v makes v the center of all new connections — v lands in
// Lout of u and of every ancestor of u, and in Lin of every descendant
// of v.
func TestFigure2LinkIntegration(t *testing.T) {
	// two chains: a0→a1→a2 and d0→d1→d2 (global 0..2 and 3..5)
	cov := twohop.NewCover(6, false)
	cov.AddOut(0, 1, 0)
	cov.AddIn(2, 1, 0)
	cov.AddOut(3, 4, 0)
	cov.AddIn(5, 4, 0)
	cov.Finish()
	g := graph.NewDigraph(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		g.AddEdge(e[0], e[1])
	}
	u, v := int32(2), int32(3)
	g.AddEdge(u, v)
	cov.IntegrateLink(u, v, g.Walk(u, true), g.Walk(v, false))
	// v ∈ Lout(u) and of u's ancestors {0,1}
	for _, a := range []int32{0, 1, 2} {
		found := false
		for _, e := range cov.Out[a] {
			if e.Center == v {
				found = true
			}
		}
		if !found {
			t.Errorf("v missing from Lout(%d): %v", a, cov.Out[a])
		}
	}
	// v ∈ Lin(d) for v's proper descendants {4,5}; v itself implicit
	for _, d := range []int32{4, 5} {
		found := false
		for _, e := range cov.In[d] {
			if e.Center == v {
				found = true
			}
		}
		if !found {
			t.Errorf("v missing from Lin(%d): %v", d, cov.In[d])
		}
	}
}

// TestFigure3PSG partitions the Fig. 1 collection into two partitions
// and checks the resulting partition-level skeleton graph: its nodes
// are exactly the endpoints of cross-partition links, its edges the
// cross links plus target→source connections inside a partition.
func TestFigure3PSG(t *testing.T) {
	c := fig1Collection(t)
	// P1 = {d1}, P2 = {d2, d3} (the figure's split)
	p := &partition.Partitioning{
		Parts:  [][]int{{0}, {1, 2}},
		PartOf: []int{0, 1, 1},
	}
	for _, l := range c.Links {
		if p.PartOf[c.DocOfID(l.From)] != p.PartOf[c.DocOfID(l.To)] {
			p.CrossLinks = append(p.CrossLinks, l)
		}
	}
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	parts := buildParts(c, p, false)
	s := Build(c, p.CrossLinks, partOfFunc(c, p), parts, false)

	// cross links: d1/c → d2/root and d3/b → d1/d ⇒ 4 PSG nodes
	if len(s.Nodes) != 4 {
		t.Fatalf("PSG nodes = %v, want 4", s.Nodes)
	}
	// inside P2: target d2/root reaches source d3/b (via d2/c → d3
	// root → d3/b), so a dashed target→source edge must exist
	tgt := s.Index[c.GlobalID(1, 0)]
	src := s.Index[c.GlobalID(2, 1)]
	if !s.G.HasEdge(tgt, src) {
		t.Error("missing intra-partition target→source edge in the PSG")
	}
	// inside P1: target d1/d is a leaf and cannot reach source d1/c
	tgt1 := s.Index[c.GlobalID(0, 3)]
	src1 := s.Index[c.GlobalID(0, 2)]
	if s.G.HasEdge(tgt1, src1) {
		t.Error("phantom target→source edge for unconnected endpoints")
	}
	// the joined cover over this partitioning is exact
	cov := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{})
	joinAndVerify(t, c, cov)
}

// TestFigure1TwoHopLabels checks the labeling story of Fig. 1: after
// indexing, the cover proves u →* v exactly when a path exists. The
// document-level cycle d1 → d2 → d3 → d1 does NOT make the roots
// mutually reachable at the element level, because the link into d1
// lands on the leaf element d.
func TestFigure1TwoHopLabels(t *testing.T) {
	c := fig1Collection(t)
	p := partition.Single(c)
	parts := buildParts(c, p, false)
	cov := JoinNew(c, p.CrossLinks, partOfFunc(c, p), parts, NewJoinOptions{})
	joinAndVerify(t, c, cov)
	r1 := c.GlobalID(0, 0)
	r2 := c.GlobalID(1, 0)
	r3 := c.GlobalID(2, 0)
	leafD := c.GlobalID(0, 3)
	for _, pair := range [][2]int32{{r1, r2}, {r2, r3}, {r1, r3}, {r3, leafD}, {r2, leafD}} {
		if !cov.Reaches(pair[0], pair[1]) {
			t.Errorf("%d should reach %d", pair[0], pair[1])
		}
	}
	// the element-level cycle is NOT closed: the link into d1 targets
	// leaf d, which has no outgoing edges
	if cov.Reaches(r3, r1) || cov.Reaches(r2, r1) {
		t.Error("document-level cycle must not imply element-level root reachability")
	}
	if cov.Reaches(c.GlobalID(2, 1), c.GlobalID(0, 1)) {
		t.Error("d3/b must not reach d1/b (link lands on leaf d)")
	}
}
