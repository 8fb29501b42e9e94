package core

import (
	"math/rand"
	"testing"

	"hopi/internal/xmlmodel"
)

func buildFor(t *testing.T, c *xmlmodel.Collection, withDist bool, seed int64) *Index {
	t.Helper()
	ix, err := Build(c, Options{
		Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewHBar,
		WithDistance: withDist, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestInsertEdgeMaintainsCover(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 10)
		ix := buildFor(t, c, false, seed)
		// insert 5 random new links
		for k := 0; k < 5; k++ {
			fd := rng.Intn(c.NumDocs())
			td := rng.Intn(c.NumDocs())
			from := c.GlobalID(fd, int32(rng.Intn(c.Docs[fd].Len())))
			to := c.GlobalID(td, int32(rng.Intn(c.Docs[td].Len())))
			if from == to {
				continue
			}
			if err := ix.InsertEdge(from, to); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInsertEdgeWithDistance(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 8)
		ix := buildFor(t, c, true, seed)
		for k := 0; k < 4; k++ {
			fd := rng.Intn(c.NumDocs())
			td := rng.Intn(c.NumDocs())
			from := c.GlobalID(fd, int32(rng.Intn(c.Docs[fd].Len())))
			to := c.GlobalID(td, int32(rng.Intn(c.Docs[td].Len())))
			if from == to {
				continue
			}
			if err := ix.InsertEdge(from, to); err != nil {
				t.Fatal(err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("seed %d after edge %d→%d: %v", seed, from, to, err)
			}
		}
	}
}

func TestInsertDocumentWithLinks(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 8)
		ix := buildFor(t, c, seed%2 == 0, seed)
		// new document with internal structure and an intra link
		nd := xmlmodel.NewDocument("new", "pub")
		s1 := nd.AddElement(0, "sec")
		s2 := nd.AddElement(0, "sec")
		nd.AddElement(s1, "p")
		nd.AddIntraLink(s2, s1)
		docIdx, err := ix.InsertDocument(nd)
		if err != nil {
			t.Fatal(err)
		}
		// outgoing and incoming links
		if err := ix.InsertEdge(c.GlobalID(docIdx, s2), c.GlobalID(0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertEdge(c.GlobalID(1, 0), c.GlobalID(docIdx, 0)); err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// connectivity through the new doc: doc1 root → new doc → doc0
		if !ix.Reaches(c.GlobalID(1, 0), c.GlobalID(0, 0)) {
			t.Error("chain through inserted document not reflected")
		}
	}
}

// separatingChain: docs in a line; every interior doc separates.
func separatingChain(n int) *xmlmodel.Collection {
	c := xmlmodel.NewCollection()
	for i := 0; i < n; i++ {
		d := xmlmodel.NewDocument("", "pub")
		d.AddElement(0, "sec")
		d.AddElement(0, "sec")
		c.AddDocument(d)
	}
	for i := 0; i < n-1; i++ {
		if err := c.AddLink(c.GlobalID(i, 2), c.GlobalID(i+1, 0)); err != nil {
			panic(err)
		}
	}
	return c
}

func TestSeparatesChainAndDiamond(t *testing.T) {
	c := separatingChain(5)
	ix := buildFor(t, c, false, 1)
	for i := 1; i < 4; i++ {
		if !ix.Separates(i) {
			t.Errorf("interior chain doc %d should separate", i)
		}
	}
	// endpoints separate trivially (no ancestors / no descendants)
	if !ix.Separates(0) || !ix.Separates(4) {
		t.Error("chain endpoints should separate trivially")
	}

	// diamond: 0 → {1,2} → 3; neither 1 nor 2 separates
	cd := xmlmodel.NewCollection()
	for i := 0; i < 4; i++ {
		d := xmlmodel.NewDocument("", "pub")
		d.AddElement(0, "sec")
		cd.AddDocument(d)
	}
	mustLink := func(a, b int) {
		if err := cd.AddLink(cd.GlobalID(a, 1), cd.GlobalID(b, 0)); err != nil {
			panic(err)
		}
	}
	mustLink(0, 1)
	mustLink(0, 2)
	mustLink(1, 3)
	mustLink(2, 3)
	ixd := buildFor(t, cd, false, 1)
	if ixd.Separates(1) || ixd.Separates(2) {
		t.Error("diamond middle docs must not separate")
	}
}

func TestDeleteSeparatingDocument(t *testing.T) {
	c := separatingChain(6)
	ix := buildFor(t, c, false, 1)
	fast, err := ix.DeleteDocument(3)
	if err != nil {
		t.Fatal(err)
	}
	if !fast {
		t.Fatal("expected the Theorem 2 fast path")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// upstream no longer reaches downstream
	if ix.Reaches(c.GlobalID(0, 0), c.GlobalID(5, 0)) {
		t.Error("connection through deleted document survived")
	}
	// but local connectivity persists
	if !ix.Reaches(c.GlobalID(0, 0), c.GlobalID(2, 1)) {
		t.Error("upstream chain broken")
	}
	if !ix.Reaches(c.GlobalID(4, 0), c.GlobalID(5, 1)) {
		t.Error("downstream chain broken")
	}
}

func TestDeleteNonSeparatingDocument(t *testing.T) {
	// diamond: deleting one middle doc must keep the other path alive
	cd := xmlmodel.NewCollection()
	for i := 0; i < 4; i++ {
		d := xmlmodel.NewDocument("", "pub")
		d.AddElement(0, "sec")
		cd.AddDocument(d)
	}
	mustLink := func(a, b int) {
		if err := cd.AddLink(cd.GlobalID(a, 1), cd.GlobalID(b, 0)); err != nil {
			panic(err)
		}
	}
	mustLink(0, 1)
	mustLink(0, 2)
	mustLink(1, 3)
	mustLink(2, 3)
	ix := buildFor(t, cd, false, 1)
	fast, err := ix.DeleteDocument(1)
	if err != nil {
		t.Fatal(err)
	}
	if fast {
		t.Fatal("expected the Theorem 3 general path")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if !ix.Reaches(cd.GlobalID(0, 0), cd.GlobalID(3, 1)) {
		t.Error("alternative path lost")
	}
}

// Property: random deletions (both paths) keep the cover exact.
func TestDeleteDocumentRandomCorrect(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 10)
		ix := buildFor(t, c, false, seed)
		// delete 3 random live documents
		for k := 0; k < 3; k++ {
			live := c.LiveDocIndexes()
			if len(live) < 2 {
				break
			}
			victim := live[rng.Intn(len(live))]
			if _, err := ix.DeleteDocument(victim); err != nil {
				t.Fatal(err)
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("seed %d after deleting doc %d: %v", seed, victim, err)
			}
		}
	}
}

// Property: deletions on cyclic document graphs (documents that are
// their own doc-level ancestors/descendants) stay correct.
func TestDeleteDocumentCyclicCorrect(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cyclicCollection(rng, 9)
		ix := buildFor(t, c, false, seed)
		live := c.LiveDocIndexes()
		victim := live[rng.Intn(len(live))]
		if _, err := ix.DeleteDocument(victim); err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("seed %d victim %d: %v", seed, victim, err)
		}
	}
}

// Property: deletions keep distance-aware covers exact.
func TestDeleteDocumentDistanceCorrect(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 8)
		ix := buildFor(t, c, true, seed)
		live := c.LiveDocIndexes()
		victim := live[rng.Intn(len(live))]
		if _, err := ix.DeleteDocument(victim); err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("seed %d victim %d: %v", seed, victim, err)
		}
	}
}

func TestDeleteEdge(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 10)
		if len(c.Links) == 0 {
			continue
		}
		ix := buildFor(t, c, seed%2 == 0, seed)
		l := c.Links[rng.Intn(len(c.Links))]
		if err := ix.DeleteEdge(l.From, l.To); err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("seed %d after deleting %d→%d: %v", seed, l.From, l.To, err)
		}
	}
}

func TestDeleteEdgeNotFound(t *testing.T) {
	c := separatingChain(3)
	ix := buildFor(t, c, false, 1)
	if err := ix.DeleteEdge(c.GlobalID(0, 0), c.GlobalID(2, 0)); err == nil {
		t.Error("deleting a non-existent link should error")
	}
}

func TestDeleteDocumentTwiceErrors(t *testing.T) {
	c := separatingChain(3)
	ix := buildFor(t, c, false, 1)
	if _, err := ix.DeleteDocument(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.DeleteDocument(1); err == nil {
		t.Error("double delete should error")
	}
}

func TestModifyDocument(t *testing.T) {
	c := separatingChain(4)
	ix := buildFor(t, c, false, 1)
	// restructure doc 1: more elements
	nd := xmlmodel.NewDocument("", "pub")
	s := nd.AddElement(0, "sec")
	nd.AddElement(s, "p")
	nd.AddElement(s, "p")
	newIdx, err := ix.ModifyDocument(1, nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// link from doc0 into the modified doc was re-attached; the chain
	// 0 → new doc must hold
	if !ix.Reaches(c.GlobalID(0, 0), c.GlobalID(newIdx, 0)) {
		t.Error("incoming link not re-attached")
	}
}

func TestRebuildAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := citeCollection(rng, 12)
	ix := buildFor(t, c, false, 5)
	// churn: deletions and insertions degrade the cover
	live := c.LiveDocIndexes()
	ix.DeleteDocument(live[2])
	nd := xmlmodel.NewDocument("", "pub")
	nd.AddElement(0, "sec")
	docIdx, err := ix.InsertDocument(nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(c.GlobalID(docIdx, 1), c.GlobalID(0, 0)); err != nil {
		t.Fatal(err)
	}
	sizeBefore := ix.Size()
	if err := ix.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if ix.Size() > sizeBefore*2 {
		t.Errorf("rebuild grew the cover: %d → %d", sizeBefore, ix.Size())
	}
}

// Mixed workload property test: interleaved inserts, deletes, edge
// ops; the cover must stay exact throughout.
func TestMixedMaintenanceWorkload(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := citeCollection(rng, 8)
		ix := buildFor(t, c, false, seed)
		for op := 0; op < 8; op++ {
			live := c.LiveDocIndexes()
			switch rng.Intn(4) {
			case 0: // insert doc
				nd := xmlmodel.NewDocument("", "pub")
				nd.AddElement(0, "sec")
				di, err := ix.InsertDocument(nd)
				if err != nil {
					t.Fatal(err)
				}
				other := live[rng.Intn(len(live))]
				if err := ix.InsertEdge(c.GlobalID(di, 1), c.GlobalID(other, 0)); err != nil {
					t.Fatal(err)
				}
			case 1: // insert edge
				a := live[rng.Intn(len(live))]
				b := live[rng.Intn(len(live))]
				from := c.GlobalID(a, int32(rng.Intn(c.Docs[a].Len())))
				to := c.GlobalID(b, int32(rng.Intn(c.Docs[b].Len())))
				if from != to {
					if err := ix.InsertEdge(from, to); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // delete doc
				if len(live) > 3 {
					if _, err := ix.DeleteDocument(live[rng.Intn(len(live))]); err != nil {
						t.Fatal(err)
					}
				}
			case 3: // delete edge
				if len(c.Links) > 0 {
					l := c.Links[rng.Intn(len(c.Links))]
					if err := ix.DeleteEdge(l.From, l.To); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := ix.Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}
