package core

import (
	"math/rand"
	"testing"

	"hopi/internal/gen"
	"hopi/internal/xmlmodel"
)

func TestBuildEmptyCollection(t *testing.T) {
	c := xmlmodel.NewCollection()
	ix, err := Build(c, Options{Partitioner: PartWhole, Join: JoinNewHBar})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 0 {
		t.Errorf("size = %d", ix.Size())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildSingleDocument(t *testing.T) {
	c := xmlmodel.NewCollection()
	d := xmlmodel.NewDocument("only.xml", "r")
	ch := d.AddElement(0, "c")
	d.AddElement(ch, "g")
	c.AddDocument(d)
	for _, part := range []Partitioner{PartWhole, PartSingle, PartNodeCapped} {
		opts := Options{Partitioner: part, NodeCap: 10, Join: JoinNewHBar}
		ix, err := Build(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("%s: %v", part, err)
		}
		if !ix.Reaches(0, 2) || ix.Reaches(2, 0) {
			t.Errorf("%s: tree reachability wrong", part)
		}
	}
}

// TestINEXAllDeletionsFast: in a link-free collection every document
// separates, so every deletion takes the Theorem 2 fast path — the
// paper's §7.3 INEX observation.
func TestINEXAllDeletionsFast(t *testing.T) {
	c := gen.INEX(gen.DefaultINEX(8, 40, 3))
	ix, err := Build(c, Options{Partitioner: PartSingle, Join: JoinNewHBar, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append([]int(nil), c.LiveDocIndexes()...) {
		if c.NumDocs() == 1 {
			break
		}
		fast, err := ix.DeleteDocument(d)
		if err != nil {
			t.Fatal(err)
		}
		if !fast {
			t.Fatalf("doc %d of a link-free collection took the general path", d)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkersEquivalence: concurrency must not change the result.
func TestWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := citeCollection(rng, 16)
	base, err := Build(c, Options{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewHBar, Seed: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(c, Options{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewHBar, Seed: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.Size() != par.Size() {
		t.Errorf("worker count changed the cover: %d vs %d", base.Size(), par.Size())
	}
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewFromCoverSupportsMaintenance: an index reattached to a loaded
// cover must answer queries and accept maintenance.
func TestNewFromCoverSupportsMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := citeCollection(rng, 8)
	built, err := Build(c, Options{Partitioner: PartNodeCapped, NodeCap: 20, Join: JoinNewHBar, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	re := NewFromCover(c, built.Cover().Clone())
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	nd := xmlmodel.NewDocument("extra.xml", "r")
	nd.AddElement(0, "c")
	di, err := re.InsertDocument(nd)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.InsertEdge(c.GlobalID(di, 1), c.GlobalID(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewFromCoverRebuildKeepsDistances: a reattached distance-aware
// cover (a reopened store) must rebuild distance-aware, or distance
// queries would start failing after a Rebuild.
func TestNewFromCoverRebuildKeepsDistances(t *testing.T) {
	c := citeCollection(rand.New(rand.NewSource(4)), 6)
	built := buildFor(t, c, true, 4)
	re := NewFromCover(c, built.Cover().Clone())
	if err := re.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Distance(c.GlobalID(0, 0), c.GlobalID(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteAllDocuments drains a collection one document at a time;
// the cover must stay exact to the very end.
func TestDeleteAllDocuments(t *testing.T) {
	c := separatingChain(5)
	ix := buildFor(t, c, false, 2)
	for len(c.LiveDocIndexes()) > 0 {
		victim := c.LiveDocIndexes()[0]
		if _, err := ix.DeleteDocument(victim); err != nil {
			t.Fatal(err)
		}
		if err := ix.Validate(); err != nil {
			t.Fatalf("after deleting %d: %v", victim, err)
		}
	}
	if ix.Size() != 0 {
		t.Errorf("labels remain after deleting everything: %d", ix.Size())
	}
}

// TestInsertEdgeIntoTombstonedDocRejected: maintenance must refuse
// links touching removed documents.
func TestInsertEdgeIntoTombstonedDocRejected(t *testing.T) {
	c := separatingChain(3)
	ix := buildFor(t, c, false, 2)
	if _, err := ix.DeleteDocument(1); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(c.GlobalID(0, 0), c.GlobalID(1, 0)); err == nil {
		t.Error("edge into tombstoned document accepted")
	}
}

// TestSelfLoopInsertIgnored: a self link is a no-op for the cover.
func TestSelfLoopInsertIgnored(t *testing.T) {
	c := separatingChain(3)
	ix := buildFor(t, c, false, 2)
	if err := ix.InsertEdge(c.GlobalID(0, 1), c.GlobalID(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCoverCloneUsedByIndexIsIndependent guards the Clone contract the
// NewFromCover test relies on.
func TestCoverCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := citeCollection(rng, 6)
	ix := buildFor(t, c, false, 3)
	clone := ix.Cover().Clone()
	before := clone.Size()
	// mutate the original through maintenance
	nd := xmlmodel.NewDocument("", "r")
	if _, err := ix.InsertDocument(nd); err != nil {
		t.Fatal(err)
	}
	if clone.Size() != before {
		t.Error("clone affected by original's maintenance")
	}
}
