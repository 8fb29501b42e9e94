package hopi

import (
	"bytes"
	"path/filepath"
	"testing"
)

// demoFiles is a tiny citation network used across the public-API
// tests.
func demoFiles() map[string][]byte {
	return map[string][]byte{
		"a.xml": []byte(`<bib><book><title>A</title><author id="au"/></book><cite href="b.xml"/></bib>`),
		"b.xml": []byte(`<bib><book><title>B</title><author/></book><cite href="c.xml#sec"/></bib>`),
		"c.xml": []byte(`<paper><section id="sec"><author/></section></paper>`),
	}
}

func demoIndex(t *testing.T, withDist bool) *Index {
	t.Helper()
	coll, err := ParseCollection(demoFiles())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.WithDistance = withDist
	opts.Seed = 1
	ix, err := Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildAndReach(t *testing.T) {
	ix := demoIndex(t, false)
	coll := ix.Collection()
	a, _ := coll.DocByName("a.xml")
	b, _ := coll.DocByName("b.xml")
	c, _ := coll.DocByName("c.xml")
	if !ix.Reaches(coll.ElemID(a, 0), coll.ElemID(b, 0)) {
		t.Error("a should reach b via cite")
	}
	if !ix.Reaches(coll.ElemID(a, 0), coll.ElemID(c, 0)+1) {
		t.Error("a should reach c's section transitively")
	}
	if ix.Reaches(coll.ElemID(c, 0), coll.ElemID(a, 0)) {
		t.Error("citations are one-way")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceQueries(t *testing.T) {
	ix := demoIndex(t, true)
	coll := ix.Collection()
	a, _ := coll.DocByName("a.xml")
	b, _ := coll.DocByName("b.xml")
	// a's root → a's cite (1) → b's root (1)
	d, err := ix.Distance(coll.ElemID(a, 0), coll.ElemID(b, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Errorf("Distance = %d, want 2", d)
	}
	d, _ = ix.Distance(coll.ElemID(b, 0), coll.ElemID(a, 0))
	if d != Infinite {
		t.Errorf("unreachable pair: %d", d)
	}
}

func TestPathQueries(t *testing.T) {
	ix := demoIndex(t, true)
	res, err := ix.Query("//book//author")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("//book//author: %+v", res)
	}
	// the bib of a.xml reaches all three authors via links
	res, err = ix.Query("//bib//author")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("//bib//author: %+v", res)
	}
	ranked, err := ix.QueryRanked("//bib//author")
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked: %+v", ranked)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Error("ranked results out of order")
		}
	}
	if ranked[0].Doc == "" || ranked[0].Tag != "author" {
		t.Errorf("result metadata: %+v", ranked[0])
	}
}

func TestMaintenanceThroughPublicAPI(t *testing.T) {
	ix := demoIndex(t, false)
	coll := ix.Collection()
	// new paper citing a.xml
	nd := NewDocument("d.xml", "paper")
	cite := nd.AddElement(nd.Root(), "cite")
	doc, err := ix.InsertDocument(nd)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := coll.DocByName("a.xml")
	if err := ix.InsertEdge(coll.ElemID(doc, cite), coll.ElemID(a, 0)); err != nil {
		t.Fatal(err)
	}
	if !ix.Reaches(coll.ElemID(doc, 0), coll.ElemID(a, 1)) {
		t.Error("new paper should reach a's book")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	// queries see the new document after engine refresh (automatic)
	res, err := ix.Query("//paper//book")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("//paper//book after insert: %+v", res)
	}
	// delete b.xml: a no longer reaches c
	b, _ := coll.DocByName("b.xml")
	fast, err := ix.DeleteDocument(b)
	if err != nil {
		t.Fatal(err)
	}
	if !fast {
		t.Error("b.xml separates the chain; fast path expected")
	}
	cdoc, _ := coll.DocByName("c.xml")
	if ix.Reaches(coll.ElemID(a, 0), coll.ElemID(cdoc, 0)+1) {
		t.Error("connection through deleted doc survived")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.hopi")
	ix := demoIndex(t, true)
	coll := ix.Collection()
	a, _ := coll.DocByName("a.xml")
	c, _ := coll.DocByName("c.xml")
	wantReach := ix.Reaches(coll.ElemID(a, 0), coll.ElemID(c, 0))
	wantDist, _ := ix.Distance(coll.ElemID(a, 0), coll.ElemID(c, 0))
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Size() != ix.Size() {
		t.Errorf("stored index holds %d label entries, built one %d", re.Size(), ix.Size())
	}
	if st := re.SegmentStats(); !st.Enabled || st.Segments != 1 || st.LiveEntries != int64(ix.Size()) {
		t.Errorf("Save did not write a one-segment store: %+v", st)
	}
	coll2 := re.Collection()
	a2, ok := coll2.DocByName("a.xml")
	if !ok {
		t.Fatal("collection lost a.xml")
	}
	c2, _ := coll2.DocByName("c.xml")
	if re.Reaches(coll2.ElemID(a2, 0), coll2.ElemID(c2, 0)) != wantReach {
		t.Error("reachability changed across save/open")
	}
	d, err := re.Distance(coll2.ElemID(a2, 0), coll2.ElemID(c2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d != wantDist {
		t.Errorf("distance changed: %d vs %d", d, wantDist)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	// maintenance works on a reopened index
	nd := NewDocument("e.xml", "paper")
	if _, err := re.InsertDocument(nd); err != nil {
		t.Fatal(err)
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionBuilderAPI(t *testing.T) {
	coll := NewCollection()
	d1 := NewDocument("x.xml", "root")
	ch := d1.AddElement(d1.Root(), "child")
	d1.SetAnchor(ch, "c1")
	d1.AddIntraLink(d1.Root(), ch)
	id1 := coll.Add(d1)
	d2 := NewDocument("y.xml", "root")
	id2 := coll.Add(d2)
	if err := coll.AddLink(id2, 0, id1, ch); err != nil {
		t.Fatal(err)
	}
	if coll.NumDocs() != 2 || coll.NumElements() != 3 || coll.NumLinks() != 2 {
		t.Errorf("%s", coll)
	}
	if el, ok := coll.Anchor(id1, "c1"); !ok || el != coll.ElemID(id1, ch) {
		t.Error("anchor lookup failed")
	}
	// XML serialization parses back
	if !bytes.Contains(d1.XML(), []byte("href")) {
		t.Errorf("XML output missing link: %s", d1.XML())
	}
	ix, err := Build(coll, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Reaches(coll.ElemID(id2, 0), coll.ElemID(id1, ch)) {
		t.Error("builder-made link not indexed")
	}
}

func TestAddXMLUnresolvedLinks(t *testing.T) {
	coll := NewCollection()
	_, unresolved, err := coll.AddXML("solo.xml", []byte(`<a><b href="missing.xml#x"/></a>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(unresolved) != 1 {
		t.Errorf("unresolved = %v", unresolved)
	}
	// adding the target later and linking by anchor
	_, _, err = coll.AddXML("missing.xml", []byte(`<r><s id="x"/></r>`))
	if err != nil {
		t.Fatal(err)
	}
}
