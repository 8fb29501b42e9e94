package xmlmodel

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// figureCollection builds a 3-document collection in the spirit of
// Fig. 1 of the paper: nine elements spread over documents d1, d2, d3,
// parent-child edges, one intra-document link and inter-document links.
func figureCollection(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection()

	d1 := NewDocument("d1", "a") // elements 0,1,2,3 → global 0..3
	e2 := d1.AddElement(0, "b")
	d1.AddElement(e2, "c")
	d1.AddElement(0, "d")

	d2 := NewDocument("d2", "a") // elements 0,1,2 → global 4..6
	f := d2.AddElement(0, "b")
	d2.AddElement(f, "c")
	d2.AddIntraLink(2, 0) // dashed intra link back to the root

	d3 := NewDocument("d3", "a") // elements 0,1 → global 7..8
	d3.AddElement(0, "b")

	c.AddDocument(d1)
	c.AddDocument(d2)
	c.AddDocument(d3)

	// strong arrows: d1 → d2, d2 → d3, d3 → d1
	if err := c.AddLink(c.GlobalID(0, 2), c.GlobalID(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(c.GlobalID(1, 2), c.GlobalID(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(c.GlobalID(2, 1), c.GlobalID(0, 3)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCollectionIDMapping(t *testing.T) {
	c := figureCollection(t)
	if c.NumElements() != 9 {
		t.Fatalf("NumElements = %d", c.NumElements())
	}
	if got := c.GlobalID(1, 2); got != 6 {
		t.Errorf("GlobalID(1,2) = %d", got)
	}
	for id := int32(0); id < 9; id++ {
		doc, local := c.LocalID(id)
		if back := c.GlobalID(doc, local); back != id {
			t.Errorf("roundtrip %d → (%d,%d) → %d", id, doc, local, back)
		}
	}
	if c.DocOfID(3) != 0 || c.DocOfID(4) != 1 || c.DocOfID(8) != 2 {
		t.Error("DocOfID wrong")
	}
}

func TestCollectionLinkRouting(t *testing.T) {
	c := figureCollection(t)
	if len(c.Links) != 3 {
		t.Fatalf("inter links = %d, want 3", len(c.Links))
	}
	// Same-document AddLink becomes an intra link.
	before := len(c.Docs[0].IntraLinks)
	if err := c.AddLink(c.GlobalID(0, 1), c.GlobalID(0, 3)); err != nil {
		t.Fatal(err)
	}
	if len(c.Links) != 3 || len(c.Docs[0].IntraLinks) != before+1 {
		t.Error("same-document link not routed to intra links")
	}
	// NumLinks counts intra + inter.
	if got := c.NumLinks(); got != 3+1+1 {
		t.Errorf("NumLinks = %d, want 5", got)
	}
}

func TestElementGraph(t *testing.T) {
	c := figureCollection(t)
	g := c.ElementGraph()
	if g.N() != 9 {
		t.Fatalf("N = %d", g.N())
	}
	// tree edges
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 3) {
		t.Error("d1 tree edges missing")
	}
	// intra link of d2: local (2 → 0) = global (6 → 4)
	if !g.HasEdge(6, 4) {
		t.Error("intra link missing")
	}
	// inter links
	if !g.HasEdge(2, 4) || !g.HasEdge(6, 7) || !g.HasEdge(8, 3) {
		t.Error("inter links missing")
	}
	// connectivity across the link cycle: element 1 (in d1) reaches d3's root
	if !g.ReachableFrom(1).Has(7) {
		t.Error("cross-document reachability broken")
	}
}

func TestDocGraph(t *testing.T) {
	c := figureCollection(t)
	g, w := c.DocGraph()
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("doc graph N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Error("doc edges wrong")
	}
	if w[[2]int32{0, 1}] != 1 {
		t.Errorf("weight = %d", w[[2]int32{0, 1}])
	}
}

func TestRemoveDocument(t *testing.T) {
	c := figureCollection(t)
	c.RemoveDocument(1)
	if c.Alive(1) {
		t.Fatal("still alive")
	}
	if c.NumDocs() != 2 || c.NumElements() != 6 {
		t.Errorf("NumDocs=%d NumElements=%d", c.NumDocs(), c.NumElements())
	}
	// Links touching d2 dropped; d3→d1 survives.
	if len(c.Links) != 1 || c.Links[0].From != 8 {
		t.Errorf("Links = %v", c.Links)
	}
	// Graph keeps the ID space but d2's elements are isolated.
	g := c.ElementGraph()
	if g.N() != 9 {
		t.Errorf("N = %d, ID space must be stable", g.N())
	}
	if len(g.Succ(4)) != 0 || len(g.Pred(4)) != 0 {
		t.Error("tombstoned elements must be isolated")
	}
	// Idempotent.
	c.RemoveDocument(1)
	if c.NumDocs() != 2 {
		t.Error("double remove changed counts")
	}
}

func TestAddDocumentAfterRemove(t *testing.T) {
	c := figureCollection(t)
	c.RemoveDocument(2)
	d4 := NewDocument("d4", "x")
	d4.AddElement(0, "y")
	idx := c.AddDocument(d4)
	if got := c.GlobalID(idx, 0); got != 9 {
		t.Errorf("new doc base = %d, want 9 (IDs never reused)", got)
	}
	if c.NumElements() != 7+2 {
		t.Errorf("NumElements = %d", c.NumElements())
	}
}

func TestElementsByTag(t *testing.T) {
	c := figureCollection(t)
	m := c.ElementsByTag()
	if len(m["a"]) != 3 {
		t.Errorf("tag a: %v", m["a"])
	}
	if len(m["b"]) != 3 || len(m["c"]) != 2 || len(m["d"]) != 1 {
		t.Errorf("tag map: %v", m)
	}
	if c.Tag(0) != "a" || c.Tag(2) != "c" {
		t.Error("Tag lookup wrong")
	}
}

func TestAddLinkByAnchor(t *testing.T) {
	c := figureCollection(t)
	c.Docs[2].SetAnchor(1, "sec1")
	if err := c.AddLinkByAnchor(0, 1, "d3", "sec1"); err != nil {
		t.Fatal(err)
	}
	last := c.Links[len(c.Links)-1]
	if last.From != 1 || last.To != 8 {
		t.Errorf("link = %v", last)
	}
	if err := c.AddLinkByAnchor(0, 1, "nosuch", ""); err == nil {
		t.Error("missing target doc accepted")
	}
	if err := c.AddLinkByAnchor(0, 1, "d3", "nosuch"); err == nil {
		t.Error("missing anchor accepted")
	}
}

// TestCollectionCloneCopyOnWrite mutates a collection and a growing
// family of its clones independently — document inserts and removals,
// intra and inter links added and removed — and checks each against a
// deep-copied reference that saw the same mutations: no write through
// one collection may show in another.
func TestCollectionCloneCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	newDoc := func(name string) *Document {
		d := NewDocument(name, "a")
		d.AddIntraLink(d.AddElement(d.AddElement(0, "b"), "c"), 0)
		return d
	}
	deepCopy := func(c *Collection) *Collection {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := DecodeCollection(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	same := func(a, b *Collection, where string) {
		t.Helper()
		var ea, eb bytes.Buffer
		if err := a.Encode(&ea); err != nil {
			t.Fatal(err)
		}
		if err := b.Encode(&eb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
			t.Fatalf("%s: collections differ", where)
		}
		if !maps.Equal(a.byName, b.byName) {
			t.Fatalf("%s: name indexes differ", where)
		}
	}

	c := figureCollection(t)
	colls, refs := []*Collection{c}, []*Collection{deepCopy(c)}
	added := 0
	for round := 0; round < 8; round++ {
		k := rng.Intn(len(colls))
		colls = append(colls, colls[k].Clone())
		refs = append(refs, deepCopy(refs[k]))
		for i := 0; i < 40; i++ {
			j := rng.Intn(len(colls))
			x, ref := colls[j], refs[j]
			live := x.LiveDocIndexes()
			if len(live) == 0 {
				continue
			}
			d := live[rng.Intn(len(live))]
			from := x.GlobalID(d, int32(rng.Intn(x.Docs[d].Len())))
			other := live[rng.Intn(len(live))]
			to := x.GlobalID(other, int32(rng.Intn(x.Docs[other].Len())))
			switch rng.Intn(6) {
			case 0:
				added++
				name := fmt.Sprintf("n%d", added)
				x.AddDocument(newDoc(name))
				ref.AddDocument(newDoc(name))
			case 1:
				if len(live) > 1 {
					x.RemoveDocument(d)
					ref.RemoveDocument(d)
				}
			case 2, 3:
				if err := x.AddLink(from, to); err != nil {
					t.Fatal(err)
				}
				if err := ref.AddLink(from, to); err != nil {
					t.Fatal(err)
				}
			case 4:
				if len(x.Links) > 0 {
					l := x.Links[rng.Intn(len(x.Links))]
					if x.RemoveLink(l.From, l.To) != ref.RemoveLink(l.From, l.To) {
						t.Fatal("RemoveLink disagrees with its reference")
					}
				}
			case 5:
				if intra := x.Docs[d].IntraLinks; len(intra) > 0 {
					l := intra[rng.Intn(len(intra))]
					from, to := x.GlobalID(d, l[0]), x.GlobalID(d, l[1])
					if x.RemoveLink(from, to) != ref.RemoveLink(from, to) {
						t.Fatal("RemoveLink disagrees with its reference")
					}
				}
			}
		}
		for j := range colls {
			same(refs[j], colls[j], fmt.Sprintf("round %d collection %d", round, j))
		}
	}
}
