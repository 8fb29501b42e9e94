package query

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hopi/internal/core"
	"hopi/internal/xmlmodel"
)

// treeIndex builds an index, over equivExprs' tags r and e, whose //
// steps give the tree test and the label test both work to do:
//
//   - random trees whose element IDs leave preorder: every element
//     hangs under a random earlier one, so a child is often appended
//     after a later sibling's subtree;
//   - intra-document links and cross-document links;
//   - a citation cycle through an e element that also has an e ancestor
//     in its tree, so //e//e reaches it both ways;
//   - after the build, an inserted, a modified and a deleted document.
//
// The returned index is a clone: maintenance is over.
func treeIndex(t *testing.T, seed int64) *core.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"e", "e", "r"}
	randomDoc := func(name string) *xmlmodel.Document {
		d := xmlmodel.NewDocument(name, "r")
		n := 3 + rng.Intn(8)
		for i := 1; i < n; i++ {
			d.AddElement(int32(rng.Intn(i)), tags[rng.Intn(len(tags))])
		}
		for l := rng.Intn(3); l > 0; l-- {
			if from, to := int32(rng.Intn(n)), int32(rng.Intn(n)); from != to {
				d.AddIntraLink(from, to)
			}
		}
		return d
	}
	c := xmlmodel.NewCollection()
	for i := 0; i < 8; i++ {
		c.AddDocument(randomDoc(fmt.Sprintf("d%d.xml", i)))
	}
	// r → e → r, then a second e under the root, then an e appended
	// under the first e after it: IDs 0 1 2 3 4 in preorder 0 1 2 4 3
	cyc := xmlmodel.NewDocument("cyc.xml", "r")
	e1 := cyc.AddElement(0, "e")
	cyc.AddElement(e1, "r")
	cyc.AddElement(0, "e")
	e4 := cyc.AddElement(e1, "e")
	cyc.AddElement(e4, "r")
	cycIdx := c.AddDocument(cyc)
	back := xmlmodel.NewDocument("back.xml", "r")
	back.AddElement(0, "r")
	backIdx := c.AddDocument(back)
	link := func(from, to int32) {
		t.Helper()
		if err := c.AddLink(from, to); err != nil {
			t.Fatal(err)
		}
	}
	// e4 → back → e4: the cycle through e4, whose ancestor e1 is an e
	link(c.GlobalID(cycIdx, e4), c.GlobalID(backIdx, 0))
	link(c.GlobalID(backIdx, 1), c.GlobalID(cycIdx, e4))
	for l := 0; l < 10; l++ {
		fd, td := rng.Intn(8), rng.Intn(8)
		if fd == td {
			continue
		}
		link(c.GlobalID(fd, int32(rng.Intn(c.Docs[fd].Len()))), c.GlobalID(td, int32(rng.Intn(c.Docs[td].Len()))))
	}
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartSingle, Join: core.JoinNewHBar, WithDistance: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := ix.InsertDocument(randomDoc("new.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(c.GlobalID(ins, 0), c.GlobalID(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(c.GlobalID(2, 0), c.GlobalID(ins, int32(c.Docs[ins].Len()-1))); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ModifyDocument(3, randomDoc("d3.xml")); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.DeleteDocument(4); err != nil {
		t.Fatal(err)
	}
	return ix.Clone()
}

// TestTreeShortcutLazyX pins the order of the // test's layers. //a//e
// over a document whose first three e's sit under the a, and a second
// document whose e only a link reaches: the tree answers the first
// three with no walk and no label read, and the link-arc walk answers
// the fourth, one node from the a, so X is never built. A scan that
// stops within the first three walks nothing; a scan resumed after the
// second e walks only past the resume point, and less than a full one.
// All answer as Reference. The tree test takes proper ancestors only:
// no e is its own descendant, so //e//e is empty. When the walk gives
// up and X is built: TestWalkBudgetLazyX.
func TestTreeShortcutLazyX(t *testing.T) {
	c := xmlmodel.NewCollection()
	d0 := xmlmodel.NewDocument("d0.xml", "r")
	a := d0.AddElement(0, "a")
	for i := 0; i < 3; i++ {
		d0.AddElement(a, "e")
	}
	d1 := xmlmodel.NewDocument("d1.xml", "r")
	d1.AddElement(0, "e")
	i0, i1 := c.AddDocument(d0), c.AddDocument(d1)
	if err := c.AddLink(c.GlobalID(i0, a), c.GlobalID(i1, 0)); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(c, core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	q, _ := Parse("//a//e")
	es := []int32{c.GlobalID(i0, 2), c.GlobalID(i0, 3), c.GlobalID(i0, 4), c.GlobalID(i1, 1)}
	if got, want := e.Eval(q), len(Reference(c, q, false)); !slices.Equal(got, es) || want != len(es) {
		t.Fatalf("//a//e = %v, want %v (Reference: %d matches)", got, es, want)
	}
	run := func(opts StreamOpts) ([]int32, StepPlan) {
		t.Helper()
		opts.Plan = NewPlan(q, false, opts.Limit)
		return matchElems(drainStream(t, e, q, opts)), opts.Plan.Steps[1]
	}

	got, st := run(StreamOpts{Limit: 3})
	if !slices.Equal(got, es[:3]) || st.Postings != 0 || st.Centers != 0 || st.TreeMatches != 3 || st.WalkMatches != 0 || st.Walked != 0 {
		t.Fatalf("limit 3: %v, plan %+v; want %v, 3 tree matches, no walk, no label read", got, st, es[:3])
	}
	resumed, st := run(StreamOpts{Limit: 2, HasAfter: true, After: es[1]})
	if !slices.Equal(resumed, es[2:]) || st.TreeMatches != 1 || st.WalkMatches != 1 || st.Walked != 1 || st.Centers != 0 || st.Postings != 0 {
		t.Fatalf("resumed after %d: %v, plan %+v; want %v, 1 tree match, then 1 walk of 1 node, no label read", es[1], resumed, st, es[2:])
	}
	got, full := run(StreamOpts{})
	if !slices.Equal(got, es) || full.TreeMatches != 3 || full.WalkMatches != 1 || full.Centers != 0 || full.Postings != 0 {
		t.Fatalf("unlimited: %v, plan %+v; want %v, 3 tree matches, 1 walk match, no label read", got, full, es)
	}
	if st.TreeMatches+st.WalkMatches >= full.TreeMatches+full.WalkMatches {
		t.Fatalf("resumed run decided %d candidates, full run %d — the resume point was not used",
			st.TreeMatches+st.WalkMatches, full.TreeMatches+full.WalkMatches)
	}

	ee, _ := Parse("//e//e")
	if got, want := e.Eval(ee), Reference(c, ee, false); len(got) != 0 || len(want) != 0 {
		t.Fatalf("//e//e = %v, want none (Reference: %d matches)", got, len(want))
	}
}
