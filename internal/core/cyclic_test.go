package core

import (
	"testing"

	"hopi/internal/xmlmodel"
)

// cycleCollection has one cross-document cycle a → b → c → a, an
// acyclic pair d → e, and a lone document f; every document is a root
// with three children.
func cycleCollection() *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		d := xmlmodel.NewDocument(name+".xml", "r")
		for i := 0; i < 3; i++ {
			d.AddElement(0, "x")
		}
		c.AddDocument(d)
	}
	for _, l := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}} {
		if err := c.AddLink(c.GlobalID(l[0], 1), c.GlobalID(l[1], 0)); err != nil {
			panic(err)
		}
	}
	return c
}

// TestCyclicInfoKeptAcrossAcyclicBatches checks which maintenance ops
// keep the derived cycle info (the snapshot-shared pointer survives and
// still equals a fresh SCC pass) and which drop it: a benchmark-shaped
// insert and a link delete off every cycle keep it; a cycle-closing
// link and a link delete inside an SCC drop it.
func TestCyclicInfoKeptAcrossAcyclicBatches(t *testing.T) {
	c := cycleCollection()
	ix := buildFor(t, c, false, 1)
	ix.Warm()
	kept := ix.cyc
	if kept == nil || !kept.onCycle(c.GlobalID(0, 0)) {
		t.Fatal("cycle info missing the a → b → c → a cycle")
	}
	checkKept := func(what string) {
		t.Helper()
		if ix.cyc != kept {
			t.Fatalf("%s dropped the cycle info", what)
		}
		fresh := computeCyclic(ix.coll)
		for u := 0; u < c.NumAllocatedIDs(); u++ {
			if kept.on.Has(u) != fresh.on.Has(u) {
				t.Fatalf("%s: kept cycle info says element %d on a cycle = %v, a fresh pass %v", what, u, kept.on.Has(u), fresh.on.Has(u))
			}
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	checkDropped := func(what string) {
		t.Helper()
		if ix.cyc != nil {
			t.Fatalf("%s kept the cycle info", what)
		}
		ix.Warm()
		kept = ix.cyc
		checkKept(what + " (re-derived)")
	}

	// benchmark-shaped insert: a new document citing two others
	nd := xmlmodel.NewDocument("new.xml", "article")
	nd.AddElement(0, "title")
	nd.AddElement(0, "author")
	c1, c2 := nd.AddElement(0, "cite"), nd.AddElement(0, "cite")
	di, err := ix.InsertDocument(nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(c.GlobalID(di, c1), c.GlobalID(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(c.GlobalID(di, c2), c.GlobalID(3, 0)); err != nil {
		t.Fatal(err)
	}
	checkKept("benchmark-shaped insert")

	if err := ix.DeleteEdge(c.GlobalID(3, 1), c.GlobalID(4, 0)); err != nil {
		t.Fatal(err)
	}
	checkKept("link delete off every cycle")

	if _, err := ix.DeleteDocument(5); err != nil {
		t.Fatal(err)
	}
	checkKept("deleting a document off every cycle")

	// e → d closes nothing (d → e is gone); d → a does not either
	if err := ix.InsertEdge(c.GlobalID(4, 1), c.GlobalID(3, 0)); err != nil {
		t.Fatal(err)
	}
	checkKept("acyclic link insert")

	// d → e again closes d → e → d
	if err := ix.InsertEdge(c.GlobalID(3, 1), c.GlobalID(4, 0)); err != nil {
		t.Fatal(err)
	}
	checkDropped("cycle-closing link")

	// b → c lies inside the a → b → c → a component
	if err := ix.DeleteEdge(c.GlobalID(1, 1), c.GlobalID(2, 0)); err != nil {
		t.Fatal(err)
	}
	checkDropped("link delete inside an SCC")

	if _, err := ix.DeleteDocument(3); err != nil {
		t.Fatal(err)
	}
	checkDropped("deleting a document on a cycle")

	cyc := xmlmodel.NewDocument("loop.xml", "r")
	cyc.AddIntraLink(cyc.AddElement(0, "x"), 0)
	if _, err := ix.InsertDocument(cyc); err != nil {
		t.Fatal(err)
	}
	checkDropped("inserting a document with an intra-document cycle")
}
