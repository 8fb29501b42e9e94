package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hopi/internal/segment"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// assertPostingsFresh verifies the central maintenance invariant of the
// posting index: the incrementally maintained center→owners postings
// must be identical to postings rebuilt from scratch off the current
// cover.
func assertPostingsFresh(t *testing.T, ix *Index, context string) {
	t.Helper()
	warm := ix.Postings().Postings()
	fresh := twohop.NewPostingIndex(ix.Cover())
	if err := warm.Equal(fresh); err != nil {
		t.Fatalf("%s: warm postings diverged from rebuilt: %v", context, err)
	}
}

// TestPostingsWarmUnderRandomMaintenance drives a warm index through
// randomized batches of every maintenance operation — edge inserts and
// deletes, document inserts, separating and general deletes, clones
// (which freeze the postings and force the copy-on-write path), and
// rebuilds — asserting after every op that the delta-maintained
// postings equal a from-scratch rebuild. The sealed run puts the cover
// over a segment base and seals at random steps (in full after a
// rebuild), as a durable index does.
func TestPostingsWarmUnderRandomMaintenance(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		for seed := int64(0); seed < 5; seed++ {
			t.Run(fmt.Sprintf("sealed=%v/seed=%d", sealed, seed), func(t *testing.T) {
				postingsWarmRun(t, seed, sealed)
			})
		}
	}
}

func postingsWarmRun(t *testing.T, seed int64, sealed bool) {
	rng := rand.New(rand.NewSource(seed))
	c := citeCollection(rng, 10)
	ix := buildFor(t, c, seed%2 == 0, seed)
	ix.Warm() // postings live from here on; never invalidated below
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
		op := rng.Intn(10)
		ctx := fmt.Sprintf("seed %d step %d op %d", seed, step, op)
		switch {
		case op < 4: // insert edge
			fd := rng.Intn(len(c.Docs))
			td := rng.Intn(len(c.Docs))
			if !c.Alive(fd) || !c.Alive(td) {
				continue
			}
			from := c.GlobalID(fd, int32(rng.Intn(c.Docs[fd].Len())))
			to := c.GlobalID(td, int32(rng.Intn(c.Docs[td].Len())))
			if from == to {
				continue
			}
			if err := ix.InsertEdge(from, to); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		case op < 6: // delete a random existing link
			if len(c.Links) == 0 {
				continue
			}
			l := c.Links[rng.Intn(len(c.Links))]
			if err := ix.DeleteEdge(l.From, l.To); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		case op < 7: // insert document
			nd := xmlmodel.NewDocument(fmt.Sprintf("new-%d-%d", seed, step), "pub")
			s := nd.AddElement(0, "sec")
			nd.AddElement(s, "p")
			if rng.Intn(2) == 0 {
				nd.AddIntraLink(s+1, 0) // intra cycle
			}
			if _, err := ix.InsertDocument(nd); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		case op < 8: // delete document (fast or general path)
			live := c.LiveDocIndexes()
			if len(live) <= 3 {
				continue
			}
			if _, err := ix.DeleteDocument(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		case op < 9: // clone: freezes postings, forces COW on the live side
			cl := ix.Clone()
			assertPostingsFresh(t, cl, ctx+" (clone)")
			clones = append(clones, cl)
		default: // rebuild
			if err := ix.Rebuild(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
		assertPostingsFresh(t, ix, ctx)
		if err := ix.Validate(); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if sealRng.Intn(4) == 0 {
			seal()
			assertPostingsFresh(t, ix, ctx+" (sealed)")
		}
	}
	// frozen clones must still match their own (frozen) cover even
	// after the live side mutated past them
	for i, cl := range clones {
		assertPostingsFresh(t, cl, fmt.Sprintf("seed %d final clone %d", seed, i))
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

// diffBase builds a deterministic collection whose first document has
// enough intra links that the DiffModify map-diff would be shuffled by
// Go's randomized map iteration without the sorting fix.
func diffBase() (*xmlmodel.Collection, *xmlmodel.Document) {
	c := xmlmodel.NewCollection()
	d := xmlmodel.NewDocument("big.xml", "pub")
	for i := 0; i < 12; i++ {
		d.AddElement(0, "sec")
	}
	// old links: (1..6) → +1
	for i := int32(1); i <= 6; i++ {
		d.AddIntraLink(i, i+1)
	}
	c.AddDocument(d)
	other := xmlmodel.NewDocument("other.xml", "pub")
	other.AddElement(0, "sec")
	c.AddDocument(other)

	nd := d.Clone()
	nd.IntraLinks = nil
	// keep (1→2), delete the rest, add five new ones
	nd.AddIntraLink(1, 2)
	for i := int32(7); i <= 11; i++ {
		nd.AddIntraLink(i, i-5)
	}
	return c, nd
}

// TestDiffModifyDeterministicChangeLog: identical inputs must produce
// identical InsertEdge/DeleteEdge streams — and therefore identical
// ChangeLogs and cover shapes — regardless of Go map iteration order.
func TestDiffModifyDeterministicChangeLog(t *testing.T) {
	runOnce := func() (*ChangeLog, int) {
		c, nd := diffBase()
		ix, err := Build(c, Options{Partitioner: PartSingle, Join: JoinNewHBar, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		log := ix.StartRecording()
		if err := ix.DiffModify(0, nd); err != nil {
			t.Fatal(err)
		}
		ix.StopRecording()
		if err := ix.Validate(); err != nil {
			t.Fatal(err)
		}
		return log, ix.Size()
	}
	first, firstSize := runOnce()
	for i := 0; i < 4; i++ {
		log, size := runOnce()
		if !reflect.DeepEqual(first.Coll, log.Coll) {
			t.Fatalf("run %d: collection-op stream differs:\n%v\nvs\n%v", i, first.Coll, log.Coll)
		}
		if !reflect.DeepEqual(first.Cover, log.Cover) {
			t.Fatalf("run %d: cover-delta stream differs (%d vs %d ops)", i, len(first.Cover), len(log.Cover))
		}
		if size != firstSize {
			t.Fatalf("run %d: cover size %d vs %d", i, size, firstSize)
		}
	}
}
