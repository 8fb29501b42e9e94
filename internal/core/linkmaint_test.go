package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"hopi/internal/graph"
	"hopi/internal/segment"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// viewHash is FNV-64a over every label as a reader sees it: for each
// node in [0, N) its Lout and then its Lin, each written as the list
// length followed by every (center, dist). Unlike labelHash it does not
// depend on how far the delta spines reach.
func viewHash(cov *twohop.Cover) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for v := int32(0); v < int32(cov.N()); v++ {
		for _, l := range [][]twohop.Entry{cov.Lout(v), cov.Lin(v)} {
			binary.LittleEndian.PutUint32(buf[:4], uint32(len(l)))
			h.Write(buf[:4])
			for _, e := range l {
				binary.LittleEndian.PutUint32(buf[:4], uint32(e.Center))
				binary.LittleEndian.PutUint32(buf[4:], e.Dist)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestMaintainedCoverUnchanged pins the labels a seeded sequence of
// link inserts, document inserts, link deletes and document deletes
// leaves, plain and distance-aware: how link insertion finds the
// ancestors of the source and the descendants of the target may change,
// the labels it writes may not.
func TestMaintainedCoverUnchanged(t *testing.T) {
	want := map[bool]uint64{false: 0x69bd1542d15a3962, true: 0x22260474cef9c12a}
	for _, withDist := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		c := citeCollection(rng, 14)
		ix := buildFor(t, c, withDist, 11)
		for step := 0; step < 60; step++ {
			if err := maintainStep(ix, rng, fmt.Sprintf("pin-%v-%d", withDist, step)); err != nil {
				t.Fatalf("dist=%v step %d: %v", withDist, step, err)
			}
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("dist=%v: %v", withDist, err)
		}
		if h := viewHash(ix.Cover()); h != want[withDist] {
			t.Errorf("dist=%v: label hash %#x, want %#x (%d entries)", withDist, h, want[withDist], ix.Size())
		}
	}
}

// maintainStep applies one random maintenance operation to ix: mostly
// link inserts, also new documents that cite and are cited, link
// deletes and document deletes (separating or not).
func maintainStep(ix *Index, rng *rand.Rand, name string) error {
	c := ix.Collection()
	live := c.LiveDocIndexes()
	elem := func() int32 {
		d := live[rng.Intn(len(live))]
		return c.GlobalID(d, int32(rng.Intn(c.Docs[d].Len())))
	}
	switch op := rng.Intn(10); {
	case op < 5:
		from, to := elem(), elem()
		if from == to {
			return nil
		}
		return ix.InsertEdge(from, to)
	case op < 7:
		nd := xmlmodel.NewDocument(name, "pub")
		s := nd.AddElement(0, "sec")
		nd.AddElement(s, "p")
		if rng.Intn(2) == 0 {
			nd.AddIntraLink(s+1, 0)
		}
		cited, citing := elem(), elem()
		di, err := ix.InsertDocument(nd)
		if err != nil {
			return err
		}
		if err := ix.InsertEdge(c.GlobalID(di, 2), cited); err != nil {
			return err
		}
		return ix.InsertEdge(citing, c.GlobalID(di, 0))
	case op < 9:
		if len(c.Links) == 0 {
			return nil
		}
		l := c.Links[rng.Intn(len(c.Links))]
		return ix.DeleteEdge(l.From, l.To)
	default:
		if len(live) <= 4 {
			return nil
		}
		_, err := ix.DeleteDocument(live[rng.Intn(len(live))])
		return err
	}
}

// assertWalksExact checks Ancestors and Descendants of every third
// element against a traversal of the element graph rebuilt from
// scratch: the walks over the collection's link arcs must see exactly
// the edges the collection has.
func assertWalksExact(t *testing.T, ix *Index, context string) {
	t.Helper()
	g := ix.Collection().ElementGraph()
	for u := int32(0); u < int32(g.N()); u += 3 {
		for _, side := range []struct {
			name string
			got  []int32
			want graph.Bitset
		}{
			{"Ancestors", ix.Ancestors(u), g.ReachingTo(u)},
			{"Descendants", ix.Descendants(u), g.ReachableFrom(u)},
		} {
			side.want.Set(int(u))
			got := slices.Sorted(slices.Values(side.got))
			if want := side.want.Elements(nil); !slices.Equal(got, want) {
				t.Fatalf("%s: %s(%d) = %v, want %v", context, side.name, u, got, want)
			}
		}
	}
}

// TestWalksUnderRandomMaintenance drives an index through randomized
// batches of every maintenance operation — edge inserts and deletes,
// document inserts, separating and general deletes, clones (which make
// the live side copy the documents and arcs it writes), and rebuilds —
// and checks after every op that the cover validates and that the
// ancestor and descendant walks match the element graph, on the live
// index and on every clone taken so far. The sealed run puts the cover
// over a segment base and seals at random steps (in full after a
// rebuild), as a durable index does.
func TestWalksUnderRandomMaintenance(t *testing.T) {
	randomMaintenance(t, assertWalksExact)
}

// assertSeparatesExact checks the §6.2 separation test of every live
// document, and the ancestor and descendant documents it hands to the
// fast path, against the test run over DocGraph(), G_D(X) built from
// scratch: the walks over the collection's link arcs must see exactly
// the document-level edges the collection has.
func assertSeparatesExact(t *testing.T, ix *Index, context string) {
	t.Helper()
	c := ix.Collection()
	dg, _ := c.DocGraph()
	for _, docIdx := range c.LiveDocIndexes() {
		di := int32(docIdx)
		anc, desc := dg.ReachingTo(di), dg.ReachableFrom(di)
		anc.Clear(docIdx)
		desc.Clear(docIdx)
		want := true
		if !anc.Empty() && !desc.Empty() {
			// the same traversal over G_D(X) without di's edges
			without := graph.NewDigraph(dg.N())
			for u := int32(0); u < int32(dg.N()); u++ {
				for _, v := range dg.Succ(u) {
					if u != di && v != di {
						without.AddEdge(u, v)
					}
				}
			}
			want = !anc.Intersects(desc) && !without.MultiSourceReachable(anc.Elements(nil)).Intersects(desc)
		}
		sep, gotAnc, gotDesc := ix.separation(docIdx)
		if sep != want || ix.Separates(docIdx) != want {
			t.Fatalf("%s: document %d separates = %v, want %v", context, docIdx, sep, want)
		}
		if !slices.Equal(gotAnc.Elements(nil), anc.Elements(nil)) || !slices.Equal(gotDesc.Elements(nil), desc.Elements(nil)) {
			t.Fatalf("%s: document %d ancestors %v and descendants %v, want %v and %v", context, docIdx,
				gotAnc.Elements(nil), gotDesc.Elements(nil), anc.Elements(nil), desc.Elements(nil))
		}
	}
}

// TestSeparatesMatchesDocGraph holds the separation test of every live
// document to one over DocGraph() after every step of
// TestWalksUnderRandomMaintenance's runs, sealed and not.
func TestSeparatesMatchesDocGraph(t *testing.T) {
	randomMaintenance(t, assertSeparatesExact)
}

// randomMaintenance runs walksRun with check, sealed and not, on five
// seeds each.
func randomMaintenance(t *testing.T, check func(*testing.T, *Index, string)) {
	for _, sealed := range []bool{false, true} {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("sealed=%v/seed=%d", sealed, seed), func(t *testing.T) {
				walksRun(t, seed, sealed, check)
			})
		}
	}
}

// walksRun drives the random run TestWalksUnderRandomMaintenance
// describes and calls check after every op, on the live index, and at
// the end on every clone.
func walksRun(t *testing.T, seed int64, sealed bool, check func(*testing.T, *Index, string)) {
	rng := rand.New(rand.NewSource(seed))
	c := citeCollection(rng, 10)
	ix := buildFor(t, c, seed%2 == 0, seed)
	seal := func() {}
	if sealed {
		store, err := segment.CreateStore(t.TempDir(), ix.Cover().WithDist, segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq := uint64(0)
		seal = func() {
			seq++
			cov := ix.Cover()
			write := store.Seal
			if !cov.Seg() {
				write = store.Reset
			}
			st, err := write(seq, cov.N(), int64(cov.Size()), cov.DeltaRecords())
			if err != nil {
				t.Fatal(err)
			}
			ix.SealSwapBase(twohop.NewBase(st, nil, nil, nil))
		}
		seal()
	}
	sealRng := rand.New(rand.NewSource(seed + 100))
	var clones []*Index
	for step := 0; step < 40; step++ {
		ctx := fmt.Sprintf("seed %d step %d", seed, step)
		switch rng.Intn(10) {
		case 0:
			clones = append(clones, ix.Clone())
		case 1:
			if err := ix.Rebuild(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		default:
			if err := maintainStep(ix, rng, fmt.Sprintf("new-%d-%d", seed, step)); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		check(t, ix, ctx)
		if sealRng.Intn(4) == 0 {
			seal()
		}
	}
	// clones keep the collection they were taken of, whatever the live
	// side wrote after them
	for i, cl := range clones {
		if err := cl.Validate(); err != nil {
			t.Fatalf("seed %d clone %d: %v", seed, i, err)
		}
		check(t, cl, fmt.Sprintf("seed %d clone %d", seed, i))
	}
}

// TestModifyDocumentDocInternalLink is the regression test for the
// saved-link remap bug: a link recorded in the collection's
// inter-document link table whose endpoints BOTH lie inside the
// replaced document used to be re-attached by the other endpoint's old
// global ID — which after delete+reinsert addresses the tombstoned old
// version, erroring mid-batch (or silently linking the wrong element).
// Both endpoints must be remapped into the new version.
func TestModifyDocumentDocInternalLink(t *testing.T) {
	c := xmlmodel.NewCollection()
	d0 := xmlmodel.NewDocument("a.xml", "pub")
	s0 := d0.AddElement(0, "sec")
	d0.AddElement(s0, "p")
	c.AddDocument(d0)
	d1 := xmlmodel.NewDocument("b.xml", "pub")
	d1.AddElement(0, "sec")
	c.AddDocument(d1)
	// a doc-internal link recorded in the inter-document table (the
	// state the bug needs; AddLink would have stored it as an intra
	// link, so plant it directly)
	c.Links = append(c.Links, xmlmodel.Link{From: c.GlobalID(0, 2), To: c.GlobalID(0, 1)})
	// plus a genuine inter-document link to keep remapping honest
	if err := c.AddLink(c.GlobalID(1, 1), c.GlobalID(0, 2)); err != nil {
		t.Fatal(err)
	}
	c = throughSidecar(t, c)
	ix := buildFor(t, c, false, 7)

	nd := xmlmodel.NewDocument("a.xml", "pub")
	ns := nd.AddElement(0, "sec")
	nd.AddElement(ns, "p")
	newIdx, err := ix.ModifyDocument(0, nd)
	if err != nil {
		t.Fatalf("ModifyDocument with doc-internal link: %v", err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// the doc-internal link must now connect the NEW document's
	// elements: new p (local 2) → new sec (local 1)
	if !ix.Reaches(c.GlobalID(newIdx, 2), c.GlobalID(newIdx, 1)) {
		t.Error("doc-internal link not re-attached inside the new version")
	}
	// the inter-document link b.xml:1 → new a.xml:2 must survive
	if !ix.Reaches(c.GlobalID(1, 1), c.GlobalID(newIdx, 2)) {
		t.Error("inter-document link lost across ModifyDocument")
	}
}

// throughSidecar reads c back through Encode and DecodeCollection, the
// only way a link-table entry inside one document can arrive (in a
// sidecar written before AddLink stored such links as intra links).
// Decoding gives every link-table entry its arcs, so deletions, which
// read only the arcs, see a link planted in c.Links.
func throughSidecar(t *testing.T, c *xmlmodel.Collection) *xmlmodel.Collection {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := xmlmodel.DecodeCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestModifyDocumentCollapsedLinkDropped: when both remapped endpoints
// fall back to the root (the old locals no longer exist), the
// degenerate self link is dropped instead of inserted.
func TestModifyDocumentCollapsedLinkDropped(t *testing.T) {
	c := xmlmodel.NewCollection()
	d0 := xmlmodel.NewDocument("a.xml", "pub")
	a := d0.AddElement(0, "sec")
	b := d0.AddElement(0, "sec")
	c.AddDocument(d0)
	d1 := xmlmodel.NewDocument("b.xml", "pub")
	c.AddDocument(d1)
	c.Links = append(c.Links, xmlmodel.Link{From: c.GlobalID(0, a), To: c.GlobalID(0, b)})
	c = throughSidecar(t, c)
	ix := buildFor(t, c, false, 8)

	nd := xmlmodel.NewDocument("a.xml", "pub") // root only: both locals vanish
	newIdx, err := ix.ModifyDocument(0, nd)
	if err != nil {
		t.Fatalf("ModifyDocument: %v", err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Links); got != 0 {
		t.Errorf("collapsed link not dropped: %v", c.Links)
	}
	if nl := len(c.Docs[newIdx].IntraLinks); nl != 0 {
		t.Errorf("collapsed link resurfaced as intra link: %v", c.Docs[newIdx].IntraLinks)
	}
}

// TestSelfLinksCarryNoConnection pins the degenerate-self-link rule:
// the collection drops them as no-ops, the index rejects them, and the
// documented "//a//a matches only through a genuine cycle" semantics
// therefore never meets a self loop.
func TestSelfLinksCarryNoConnection(t *testing.T) {
	c := xmlmodel.NewCollection()
	d := xmlmodel.NewDocument("a.xml", "pub")
	s := d.AddElement(0, "sec")
	c.AddDocument(d)
	u := c.GlobalID(0, s)
	if err := c.AddLink(u, u); err != nil {
		t.Fatalf("AddLink self: %v, want no-op nil", err)
	}
	if len(c.Links) != 0 || len(d.IntraLinks) != 0 {
		t.Fatalf("self link stored: inter %v intra %v", c.Links, d.IntraLinks)
	}
	ix := buildFor(t, c, true, 9)
	log := ix.StartRecording()
	if err := ix.InsertEdge(u, u); err != nil {
		t.Fatalf("InsertEdge self: %v, want no-op nil", err)
	}
	ix.StopRecording()
	if !log.Empty() {
		t.Errorf("self link recorded effects: %+v", log)
	}
	if ix.OnCycle(u) {
		t.Error("self link made OnCycle true")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// the no-op must not bypass validation: a self link on a dead
	// element still errors like any other link into a tombstone
	d2 := xmlmodel.NewDocument("b.xml", "pub")
	docIdx, err := ix.InsertDocument(d2)
	if err != nil {
		t.Fatal(err)
	}
	dead := c.GlobalID(docIdx, 0)
	if _, err := ix.DeleteDocument(docIdx); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(dead, dead); err == nil {
		t.Error("self link on a removed element accepted")
	}
}
