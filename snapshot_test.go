package hopi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotImmutableUnderApply checks the core snapshot contract: a
// snapshot taken before a maintenance batch keeps answering from the
// old state while a fresh snapshot sees the new one.
func TestSnapshotImmutableUnderApply(t *testing.T) {
	ix := demoIndex(t, false)
	before := ix.Snapshot()
	beforeDocs := before.Collection().NumDocs()
	beforeRes, err := before.Query("//bib//author")
	if err != nil {
		t.Fatal(err)
	}

	b := NewBatch()
	nd := NewDocument("d.xml", "bib")
	nd.AddElement(nd.Root(), "author")
	cite := nd.AddElement(nd.Root(), "cite")
	b.InsertDocument(nd)
	b.InsertLink("d.xml", cite, "a.xml", 0)
	if _, err := ix.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}

	if got := before.Collection().NumDocs(); got != beforeDocs {
		t.Errorf("old snapshot's collection changed: %d -> %d docs", beforeDocs, got)
	}
	again, err := before.Query("//bib//author")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(beforeRes, again) {
		t.Error("old snapshot's query results changed after Apply")
	}

	after := ix.Snapshot()
	if after == before {
		t.Fatal("Apply did not publish a new snapshot")
	}
	if got := after.Collection().NumDocs(); got != beforeDocs+1 {
		t.Errorf("new snapshot has %d docs, want %d", got, beforeDocs+1)
	}
	afterRes, err := after.Query("//bib//author")
	if err != nil {
		t.Fatal(err)
	}
	if len(afterRes) != len(beforeRes)+1 {
		t.Errorf("new snapshot: %d authors, want %d", len(afterRes), len(beforeRes)+1)
	}
	// The snapshot cache must be reused while no batch applies.
	if ix.Snapshot() != after {
		t.Error("snapshot not cached between batches")
	}
}

// TestConcurrentSnapshotQueriesWithApply overlaps ≥4 concurrent
// snapshot readers with ≥20 applied maintenance batches (run with
// -race). Each reader asserts that results stay internally consistent
// within one snapshot: evaluating the same expression twice yields
// identical results, and every reported match is reachable from some
// document root of its snapshot's collection.
func TestConcurrentSnapshotQueriesWithApply(t *testing.T) {
	ix := demoIndex(t, false)

	const (
		readers = 6
		batches = 30
	)
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		applied atomic.Int64
	)
	errc := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				snap := ix.Snapshot()
				res1, err := snap.Query("//bib//author")
				if err != nil {
					errc <- err
					return
				}
				res2, err := snap.Query("//bib//author")
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(res1, res2) {
					errc <- fmt.Errorf("reader %d: same snapshot, different results: %v vs %v", r, res1, res2)
					return
				}
				coll := snap.Collection()
				for _, m := range res1 {
					doc, ok := coll.DocByName(m.Doc)
					if !ok {
						errc <- fmt.Errorf("reader %d: result doc %q missing from snapshot collection", r, m.Doc)
						return
					}
					if !snap.Reaches(coll.ElemID(doc, 0), m.Element) {
						errc <- fmt.Errorf("reader %d: match %d not reachable from its document root", r, m.Element)
						return
					}
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		var inserted []string
		for i := 0; i < batches; i++ {
			b := NewBatch()
			name := fmt.Sprintf("churn%03d.xml", i)
			nd := NewDocument(name, "bib")
			nd.AddElement(nd.Root(), "author")
			cite := nd.AddElement(nd.Root(), "cite")
			b.InsertDocument(nd)
			b.InsertLink(name, cite, "a.xml", 0)
			if len(inserted) > 3 && i%3 == 0 {
				b.DeleteDocumentByName(inserted[0])
				inserted = inserted[1:]
			}
			if _, err := ix.Apply(context.Background(), b); err != nil {
				errc <- err
				return
			}
			inserted = append(inserted, name)
			applied.Add(1)
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := applied.Load(); got < 20 {
		t.Fatalf("only %d batches applied, want >= 20", got)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyCancelledContext checks that a cancelled context stops the
// batch before the first operation and surfaces the context error.
func TestApplyCancelledContext(t *testing.T) {
	ix := demoIndex(t, false)
	before := ix.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := NewBatch()
	nd := NewDocument("late.xml", "bib")
	b.InsertDocument(nd)
	res, err := ix.Apply(ctx, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if len(res.Results) != 0 {
		t.Fatalf("cancelled Apply reported %d applied ops", len(res.Results))
	}
	if ix.Snapshot() != before {
		t.Error("cancelled Apply invalidated the snapshot")
	}
}

// TestApplyStopsAtFailingOp checks fail-stop semantics: the failing
// op's index is reported, the applied prefix is visible, the suffix is
// not.
func TestApplyStopsAtFailingOp(t *testing.T) {
	ix := demoIndex(t, false)
	b := NewBatch()
	nd := NewDocument("p.xml", "bib")
	nd.AddElement(nd.Root(), "author")
	b.InsertDocument(nd)                  // op 0: fine
	b.DeleteDocumentByName("no-such.xml") // op 1: fails
	b.InsertLink("p.xml", 0, "a.xml", 0)  // op 2: must not run
	res, err := ix.Apply(context.Background(), b)
	if err == nil || !strings.Contains(err.Error(), "op 1") {
		t.Fatalf("err = %v, want failure at op 1", err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("applied %d ops before the failure, want 1", len(res.Results))
	}
	snap := ix.Snapshot()
	if _, ok := snap.Collection().DocByName("p.xml"); !ok {
		t.Error("applied prefix (insert p.xml) not visible")
	}
	if snap.Collection().NumLinks() != ix.Collection().NumLinks() {
		t.Error("snapshot and live state disagree after failed batch")
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyRejectsDuplicateName checks that inserting a second live
// document under an existing name fails instead of shadowing and
// orphaning the first.
func TestApplyRejectsDuplicateName(t *testing.T) {
	ix := demoIndex(t, false)
	b := NewBatch()
	b.InsertDocument(NewDocument("a.xml", "bib"))
	if _, err := ix.Apply(context.Background(), b); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate insert: err = %v, want already-exists", err)
	}
	// After deleting the original, the name is free again.
	b = NewBatch()
	b.DeleteDocumentByName("a.xml")
	b.InsertDocument(NewDocument("a.xml", "bib"))
	if _, err := ix.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestModifyRejectsNameCollision checks that replacing a document may
// keep its own name but must not take over another live document's.
func TestModifyRejectsNameCollision(t *testing.T) {
	ix := demoIndex(t, false)
	coll := ix.Collection()
	a, _ := coll.DocByName("a.xml")

	// Renaming a.xml's replacement to b.xml must fail: b.xml is live.
	b := NewBatch()
	b.ModifyDocument(a, NewDocument("b.xml", "bib"))
	if _, err := ix.Apply(context.Background(), b); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("modify onto live name: err = %v, want already-exists", err)
	}

	// Keeping the original name is the normal case and must work.
	b = NewBatch()
	nd := NewDocument("a.xml", "bib")
	nd.AddElement(nd.Root(), "book")
	b.ModifyDocument(a, nd)
	res, err := ix.Apply(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Snapshot().Collection().DocByName("a.xml"); !ok {
		t.Error("a.xml missing after in-place modify")
	}
	if len(res.Docs()) != 1 {
		t.Errorf("modify result docs: %v", res.Docs())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyRejectsOutOfRangeLink checks local-index bounds on
// name-based link endpoints; without them an out-of-range global ID
// would poison the element graph.
func TestApplyRejectsOutOfRangeLink(t *testing.T) {
	ix := demoIndex(t, false)
	for _, tc := range [][2]int32{{99, 0}, {0, 99}, {-1, 0}} {
		b := NewBatch()
		b.InsertLink("a.xml", tc[0], "b.xml", tc[1])
		if _, err := ix.Apply(context.Background(), b); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("InsertLink(%d,%d): err = %v, want out-of-range", tc[0], tc[1], err)
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchInsertXML exercises XML insertion through a batch including
// link resolution and the unresolved-target report.
func TestBatchInsertXML(t *testing.T) {
	ix := demoIndex(t, false)
	b := NewBatch()
	if err := b.InsertXML("d.xml", []byte(`<bib><cite href="a.xml"/><cite href="gone.xml"/></bib>`)); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Apply(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	op := res.Results[0]
	if len(op.Unresolved) != 1 || op.Unresolved[0] != "gone.xml#" {
		t.Errorf("unresolved = %v, want [gone.xml#]", op.Unresolved)
	}
	snap := ix.Snapshot()
	coll := snap.Collection()
	d, ok := coll.DocByName("d.xml")
	if !ok {
		t.Fatal("d.xml not inserted")
	}
	a, _ := coll.DocByName("a.xml")
	if !snap.Reaches(coll.ElemID(d, 0), coll.ElemID(a, 0)) {
		t.Error("resolved link d.xml -> a.xml missing")
	}
	if err := b.InsertXML("bad.xml", []byte(`<unclosed`)); err == nil {
		t.Error("malformed XML accepted")
	}
}

// TestQueryLimit checks result truncation for ranked and unranked
// queries.
func TestQueryLimit(t *testing.T) {
	ix := demoIndex(t, true)
	snap := ix.Snapshot()

	full, err := snap.QueryCtx(context.Background(), "//author")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("demo collection should have >= 3 authors, got %d", len(full))
	}
	for _, limit := range []int{1, 2} {
		res, err := snap.QueryCtx(context.Background(), "//author", QueryLimit(limit))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != limit {
			t.Errorf("QueryLimit(%d): got %d results", limit, len(res))
		}
		if !reflect.DeepEqual(res, full[:limit]) {
			t.Errorf("QueryLimit(%d) returned a different prefix", limit)
		}
	}
	// Limit larger than the result set and non-positive limits are
	// no-ops.
	for _, limit := range []int{len(full) + 5, 0, -1} {
		res, err := snap.QueryCtx(context.Background(), "//author", QueryLimit(limit))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(full) {
			t.Errorf("QueryLimit(%d): got %d results, want %d", limit, len(res), len(full))
		}
	}
	// Ranked: the limit keeps the best-scoring matches.
	ranked, err := snap.QueryCtx(context.Background(), "//bib//author", QueryRanked(), QueryLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || ranked[0].Score <= 0 {
		t.Errorf("ranked+limit: %+v", ranked)
	}
}

// TestQueryCtxCancelled checks that a cancelled context aborts
// evaluation with its error.
func TestQueryCtxCancelled(t *testing.T) {
	ix := demoIndex(t, true)
	snap := ix.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.QueryCtx(ctx, "//bib//author"); !errors.Is(err, context.Canceled) {
		t.Errorf("unranked: err = %v, want context.Canceled", err)
	}
	if _, err := snap.QueryCtx(ctx, "//bib//author", QueryRanked()); !errors.Is(err, context.Canceled) {
		t.Errorf("ranked: err = %v, want context.Canceled", err)
	}
}

// TestResolveElement covers the textual element addressing used by the
// cmd tools and hopiserve.
func TestResolveElement(t *testing.T) {
	ix := demoIndex(t, false)
	coll := ix.Collection()
	c, _ := coll.DocByName("c.xml")

	id, err := coll.ResolveElement("c.xml#sec")
	if err != nil {
		t.Fatal(err)
	}
	if id != coll.ElemID(c, 1) {
		t.Errorf("anchor resolution: got %d, want %d", id, coll.ElemID(c, 1))
	}
	if id, err := coll.ResolveElement("c.xml:2"); err != nil || coll.Tag(id) != "author" {
		t.Errorf("local-index resolution: id %d err %v", id, err)
	}
	if id, err := coll.ResolveElement("c.xml"); err != nil || id != coll.ElemID(c, 0) {
		t.Errorf("root resolution: id %d err %v", id, err)
	}
	for _, bad := range []string{"nope.xml", "c.xml#missing", "c.xml:99", "c.xml:x", ""} {
		if _, err := coll.ResolveElement(bad); err == nil {
			t.Errorf("ResolveElement(%q) accepted", bad)
		}
	}
}

// TestSnapshotPublishMetric checks that hopi_snapshot_publish_seconds
// observes exactly the publications: the first Snapshot after a batch,
// not the cached reads around it.
func TestSnapshotPublishMetric(t *testing.T) {
	ix := demoIndex(t, false)
	h := ix.metrics().snapshotPublish
	ix.Snapshot()
	ix.Snapshot()
	if got := h.Count(); got != 1 {
		t.Fatalf("after the first publication: count %d, want 1", got)
	}
	b := NewBatch()
	b.InsertDocument(NewDocument("m.xml", "bib"))
	if _, err := ix.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	ix.Snapshot()
	ix.Snapshot()
	if got := h.Count(); got != 2 {
		t.Fatalf("after a batch: count %d, want 2", got)
	}
}

// TestTreeAncestryUnderLinkEdits walks IsTreeAncestor and the intra
// links of a snapshot's document while batches on the live index add
// and remove that same document's intra links (run with -race): readers
// only read a shared document, and maintenance copies it before its
// first write.
func TestTreeAncestryUnderLinkEdits(t *testing.T) {
	coll := NewCollection()
	d := NewDocument("tree.xml", "r")
	for i := 1; i < 40; i++ {
		d.AddElement(int32((i-1)/3), "e")
	}
	coll.Add(d)
	other := NewDocument("other.xml", "r")
	cite := other.AddElement(other.Root(), "cite")
	coll.Add(other)
	if err := coll.AddLink(1, cite, 0, 0); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 3
	ix, err := Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	var stop atomic.Bool
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				doc := ix.Snapshot().coll.c.Docs[0]
				links := len(doc.IntraLinks)
				for _, l := range doc.IntraLinks {
					links += int(l[0]) // read every shared entry
				}
				for a := int32(0); a < int32(doc.Len()); a++ {
					for b := int32(0); b < int32(doc.Len()); b++ {
						want := false
						for p := b; p >= 0; p = doc.Elements[p].Parent {
							want = want || p == a
						}
						if doc.IsTreeAncestor(a, b) != want {
							errc <- fmt.Errorf("IsTreeAncestor(%d, %d) = %v, want %v", a, b, !want, want)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		b := NewBatch()
		if links := ix.Collection().Unwrap().Docs[0].IntraLinks; len(links) > 0 {
			for _, l := range links {
				b.DeleteEdge(l[0], l[1]) // document 0's local IDs are its global IDs
			}
		} else {
			b.InsertEdge(int32(1+i%30), 0)
			b.InsertEdge(0, int32(2+i%30))
		}
		if _, err := ix.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}
