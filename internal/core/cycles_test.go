package core

import (
	"testing"

	"hopi/internal/graph"
	"hopi/internal/xmlmodel"
)

// cycleCollection has one cross-document cycle a → b → c → a through
// the roots, an acyclic pair d → e, and a lone document f; every
// document is a root with three children, and a grandchild under the
// second child.
func cycleCollection() *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		d := xmlmodel.NewDocument(name+".xml", "r")
		for i := 0; i < 3; i++ {
			d.AddElement(0, "x")
		}
		d.AddElement(2, "y")
		c.AddDocument(d)
	}
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}} {
		if err := c.AddLink(c.GlobalID(l[0], 1), c.GlobalID(l[1], 0)); err != nil {
			panic(err)
		}
	}
	return c
}

// assertCyclesExact holds OnCycle of every element to an SCC pass over
// ElementGraph(), and on a distance-aware cover CycleDistance to the
// shortest path back from a predecessor, plus one.
func assertCyclesExact(t *testing.T, ix *Index, context string) {
	t.Helper()
	g := ix.Collection().ElementGraph()
	on := graph.NewBitset(g.N())
	for _, members := range graph.SCC(g).Comps {
		if len(members) > 1 {
			for _, v := range members {
				on.Set(int(v))
			}
		}
	}
	for u := int32(0); u < int32(g.N()); u++ {
		if got := ix.OnCycle(u); got != on.Has(int(u)) {
			t.Fatalf("%s: OnCycle(%d) = %v, an SCC pass says %v", context, u, got, !got)
		}
		if !ix.Cover().WithDist {
			continue
		}
		want := graph.InfDist
		if on.Has(int(u)) {
			d := g.BFSFrom(u)
			for _, p := range g.Pred(u) {
				if d[p] != graph.InfDist {
					want = min(want, d[p]+1)
				}
			}
		}
		if got := ix.CycleDistance(u); got != want {
			t.Fatalf("%s: CycleDistance(%d) = %d, want %d", context, u, got, want)
		}
	}
}

// TestCyclesFromLinks checks OnCycle and CycleDistance, which read the
// links into an element's tree path and the labels, against an SCC
// pass and BFS over the element graph: on a fixed collection through
// a cycle-closing link into a non-root element (a cycle whose last
// link enters an ancestor), a self link, the deletion of a document on
// a cycle and a document with an intra-document cycle; then after every
// step of randomMaintenance's runs, plain and distance-aware, sealed
// and not, and on their clones.
func TestCyclesFromLinks(t *testing.T) {
	for _, withDist := range []bool{false, true} {
		c := cycleCollection()
		ix := buildFor(t, c, withDist, 1)
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			assertCyclesExact(t, ix, what)
		}
		expect := func(what string, doc int, local int32, on bool, dist uint32) {
			t.Helper()
			u := c.GlobalID(doc, local)
			if ix.OnCycle(u) != on {
				t.Fatalf("%s: OnCycle(%d:%d) = %v, want %v", what, doc, local, !on, on)
			}
			if withDist {
				if got := ix.CycleDistance(u); got != dist {
					t.Fatalf("%s: CycleDistance(%d:%d) = %d, want %d", what, doc, local, got, dist)
				}
			}
		}
		step("built", nil)
		expect("built", 0, 0, true, 6)
		expect("built", 0, 2, false, graph.InfDist)

		// d:4 → f:2 → f:4 → d:2 → d:4: the last link enters d:4's
		// parent, one tree edge above it
		step("link into a non-root element", ix.InsertEdge(c.GlobalID(3, 4), c.GlobalID(5, 2)))
		expect("open link", 3, 4, false, graph.InfDist)
		step("cycle-closing link into a non-root element", ix.InsertEdge(c.GlobalID(5, 4), c.GlobalID(3, 2)))
		expect("cycle-closing link", 3, 4, true, 4)
		expect("cycle-closing link", 3, 2, true, 4)
		expect("cycle-closing link", 3, 0, false, graph.InfDist)

		u := c.GlobalID(4, 3)
		step("self link", ix.InsertEdge(u, u))
		expect("self link", 4, 3, false, graph.InfDist)

		_, err := ix.DeleteDocument(2)
		step("deleting a document on a cycle", err)
		expect("deleted", 0, 0, false, graph.InfDist)
		expect("deleted", 2, 0, false, graph.InfDist)

		loop := xmlmodel.NewDocument("loop.xml", "r")
		x := loop.AddElement(0, "x")
		loop.AddIntraLink(loop.AddElement(x, "y"), x)
		li, err := ix.InsertDocument(loop)
		step("a document with an intra-document cycle", err)
		expect("intra cycle", li, 2, true, 2)
		expect("intra cycle", li, 0, false, graph.InfDist)
	}
	randomMaintenance(t, assertCyclesExact)
}
