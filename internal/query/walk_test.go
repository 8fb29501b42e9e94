package query

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"hopi/internal/core"
	"hopi/internal/xmlmodel"
)

// linkedDocs builds a collection of small documents: tags[i] names
// document i's root's one child (local 1) and, after a "/", that
// child's one child (local 2). link adds a link from the child of
// document from to the root of document to.
type linkedDocs struct {
	t *testing.T
	c *xmlmodel.Collection
}

func newLinkedDocs(t *testing.T, tags ...string) *linkedDocs {
	t.Helper()
	ld := &linkedDocs{t: t, c: xmlmodel.NewCollection()}
	for _, tag := range tags {
		d := xmlmodel.NewDocument("", "r")
		child, grandchild, nested := strings.Cut(tag, "/")
		local := d.AddElement(0, child)
		if nested {
			d.AddElement(local, grandchild)
		}
		ld.c.AddDocument(d)
	}
	return ld
}

// child and root are the global IDs of document doc's child and root.
func (ld *linkedDocs) child(doc int) int32 { return ld.c.GlobalID(doc, 1) }
func (ld *linkedDocs) root(doc int) int32  { return ld.c.GlobalID(doc, 0) }

func (ld *linkedDocs) link(from, to int) {
	ld.t.Helper()
	if err := ld.c.AddLink(ld.child(from), ld.root(to)); err != nil {
		ld.t.Fatal(err)
	}
}

func (ld *linkedDocs) build() *core.Index {
	ld.t.Helper()
	ix, err := core.Build(ld.c, core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, WithDistance: true, Seed: 1})
	if err != nil {
		ld.t.Fatal(err)
	}
	return ix
}

// TestWalkEquivalence holds the link-arc walk to Reference on three
// collections built for it, through Eval, AdvanceFrontier, every limit
// of Stream and ReachesAny, and checks that the walk, not the labels,
// decided the candidate each was built for:
//
//   - cycle: an e whose only way back to itself is a link out of it and
//     a link into its document's root, so //e//e keeps it as a
//     self-match;
//   - tombstone: a link into e's document whose source document was
//     deleted after the build, the only path from the a to that e;
//   - two hops: an e that the a reaches over two links and a tree edge
//     between them.
func TestWalkEquivalence(t *testing.T) {
	type fixture struct {
		name string
		ix   *core.Index
		expr string
		want int32 // the candidate the walk decides
		hit  bool  // whether it matches
	}
	var fixtures []fixture

	// cycle: 0.e → 1.root, 1.x → 0.root; 2.e alone; 0.e → 3.root
	cyc := newLinkedDocs(t, "e", "x", "e", "e")
	cyc.link(0, 1)
	cyc.link(1, 0)
	cyc.link(0, 3)
	fixtures = append(fixtures, fixture{"cycle", cyc.build(), "//e//e", cyc.child(0), true})

	// tombstone: 0.a → 1.root, 1.x → 2.root, then document 1 deleted;
	// 0.a → 3.root keeps one match
	tomb := newLinkedDocs(t, "a", "x", "e", "e")
	tomb.link(0, 1)
	tomb.link(1, 2)
	tomb.link(0, 3)
	tix := tomb.build()
	if _, err := tix.DeleteDocument(1); err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"tombstone", tix.Clone(), "//a//e", tomb.child(2), false})

	// two hops: 0.a → 1.root, 1.x → 2.root
	two := newLinkedDocs(t, "a", "x", "e")
	two.link(0, 1)
	two.link(1, 2)
	fixtures = append(fixtures, fixture{"two hops", two.build(), "//a//e", two.child(2), true})

	ctx := context.Background()
	for _, fx := range fixtures {
		c := fx.ix.Collection()
		e := NewEngine(c, fx.ix)
		for _, expr := range []string{fx.expr, "//a//e", "//e//e", "//x//e", "//r//e", "//*//e", "//*//*", "//e//*"} {
			q, err := Parse(expr)
			if err != nil {
				t.Fatal(err)
			}
			want := slices.Sorted(maps.Keys(Reference(c, q, false)))
			got := e.Eval(q)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %q Eval: %v, want %v", fx.name, expr, got, want)
			}
			if expr == fx.expr && slices.Contains(got, fx.want) != fx.hit {
				t.Fatalf("%s %q: %d in result %t, want %t", fx.name, expr, fx.want, !fx.hit, fx.hit)
			}
			from := e.SeedFrontier(q.Steps[0])
			stepped, err := e.AdvanceFrontier(ctx, from, q.Steps[1])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(stepped, want) {
				t.Fatalf("%s %q AdvanceFrontier: %v, want %v", fx.name, expr, stepped, want)
			}
			for limit := 1; limit <= len(want); limit++ {
				if page := matchElems(drainStream(t, e, q, StreamOpts{Limit: limit})); !slices.Equal(page, want[:limit]) {
					t.Fatalf("%s %q limit %d: %v, want %v", fx.name, expr, limit, page, want[:limit])
				}
			}
			// ReachesAny is reflexive: the frontier and what it reaches
			cands := e.Candidates(q.Steps[1].Tag)
			reach, err := e.ReachesAny(ctx, from, cands)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range cands {
				if w := slices.Contains(from, v) || slices.Contains(want, v); reach[j] != w {
					t.Fatalf("%s %q ReachesAny(%v)[%d] = %t, want %t", fx.name, expr, from, v, reach[j], w)
				}
			}
		}
		q, _ := Parse(fx.expr)
		plan, err := e.Explain(ctx, q, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st := plan.Steps[1]; st.WalkMatches == 0 || st.Postings != 0 || st.Centers != 0 {
			t.Fatalf("%s %q plan %+v: want the walk to decide, no label read", fx.name, fx.expr, st)
		}
	}
}

// TestWalkBudgetLazyX pins when the walk gives up. //a//e over, in ID
// order: an e under the a (the tree), an e one link from the a (a walk
// of one node), an e no link reaches (a walk of none), an e at the end
// of a chain of minWalkBudget+4 link hops from the a (the walk spends
// its budget there, so X is built for it), an e nothing reaches and an
// e one link from the a (both by the labels). A run that stops before
// the chain's e reads no label and builds no X; one that reaches it
// builds X there, and every run answers as Reference.
func TestWalkBudgetLazyX(t *testing.T) {
	const chain = minWalkBudget + 4
	tags := []string{"a/e", "e", "e"}
	for range chain {
		tags = append(tags, "x")
	}
	tags = append(tags, "e", "e", "e")
	ld := newLinkedDocs(t, tags...)
	ld.link(0, 1)
	ld.link(0, 3) // the chain: 0.a → 3 → 4 → … → the chain's e
	for i := 3; i < 3+chain-1; i++ {
		ld.link(i, i+1)
	}
	far := 3 + chain
	ld.link(far-1, far)
	ld.link(0, far+2)
	ix := ld.build()
	e := NewEngine(ld.c, ix)
	q, _ := Parse("//a//e")

	want := []int32{ld.c.GlobalID(0, 2), ld.child(1), ld.child(far), ld.child(far + 2)}
	if ref := slices.Sorted(maps.Keys(Reference(ld.c, q, false))); !slices.Equal(ref, want) {
		t.Fatalf("fixture: Reference %v, want %v", ref, want)
	}
	run := func(limit int) ([]int32, StepPlan) {
		t.Helper()
		opts := StreamOpts{Limit: limit, Plan: NewPlan(q, false, limit)}
		return matchElems(drainStream(t, e, q, opts)), opts.Plan.Steps[1]
	}
	got, st := run(2)
	if !slices.Equal(got, want[:2]) || st.TreeMatches != 1 || st.WalkMatches != 1 || st.Centers != 0 || st.Postings != 0 {
		t.Fatalf("limit 2: %v, plan %+v; want %v, 1 tree and 1 walk match, no X", got, st, want[:2])
	}
	got, st = run(3)
	if !slices.Equal(got, want[:3]) || st.WalkMatches != 2 || st.Walked <= minWalkBudget || st.Centers == 0 || st.Postings == 0 {
		t.Fatalf("limit 3: %v, plan %+v; want %v, 2 walk matches, then the budget spent and X built", got, st, want[:3])
	}
	got, st = run(0)
	if !slices.Equal(got, want) || st.WalkMatches != 2 || st.Centers == 0 {
		t.Fatalf("unlimited: %v, plan %+v; want %v, the labels deciding after the chain's e", got, st, want)
	}
	if got := e.Eval(q); !slices.Equal(got, want) {
		t.Fatalf("Eval: %v, want %v", got, want)
	}
}
