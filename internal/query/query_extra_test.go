package query

import (
	"math/rand"
	"testing"

	"hopi/internal/core"
	"hopi/internal/gen"
	"hopi/internal/xmlmodel"
)

// Property: the engine agrees with brute force on random collections
// and random queries.
func TestEvalQuickVsNaive(t *testing.T) {
	exprs := []string{
		"//r//e", "/r/e", "//e//e", "//r/*", "//*//e", "/r//e//e",
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := gen.Random(gen.RandomConfig{Docs: 6, MaxElems: 7, Links: 8, Seed: seed})
		ix, err := core.Build(c, core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, ix)
		for _, expr := range exprs {
			q, err := Parse(expr)
			if err != nil {
				t.Fatal(err)
			}
			got := e.Eval(q)
			want := Reference(c, q, false)
			if len(got) != len(want) {
				t.Fatalf("seed %d %q: got %d matches, want %d", seed, expr, len(got), len(want))
			}
			for _, id := range got {
				if _, ok := want[id]; !ok {
					t.Fatalf("seed %d %q: spurious match %d", seed, expr, id)
				}
			}
		}
		_ = rng
	}
}

// TestEvalOnTreeCollection: on link-free INEX-like trees, // equals
// plain tree descendancy.
func TestEvalOnTreeCollection(t *testing.T) {
	c := gen.INEX(gen.DefaultINEX(4, 50, 2))
	ix, err := core.Build(c, core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	q, _ := Parse("//article//p")
	got := e.Eval(q)
	want := 0
	for _, di := range c.LiveDocIndexes() {
		for li, el := range c.Docs[di].Elements {
			if el.Tag == "p" && li != 0 {
				want++
			}
		}
	}
	if len(got) != want {
		t.Errorf("//article//p = %d matches, want %d (every p element)", len(got), want)
	}
	// matches never cross documents in a link-free collection
	q2, _ := Parse("//bdy//bdy")
	if res := e.Eval(q2); len(res) != 0 {
		t.Errorf("bdy under bdy should not exist: %v", res)
	}
}

// TestEvalRankedMonotoneUnderShortcut: adding a shortcut link can only
// improve (or keep) a match's score.
func TestEvalRankedMonotoneUnderShortcut(t *testing.T) {
	c := xmlmodel.NewCollection()
	d := xmlmodel.NewDocument("x.xml", "a")
	m := d.AddElement(0, "mid")
	n := d.AddElement(m, "mid2")
	b := d.AddElement(n, "b")
	c.AddDocument(d)
	build := func() *core.Index {
		ix, err := core.Build(c, core.Options{Partitioner: core.PartWhole, Join: core.JoinNewHBar, WithDistance: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	e1 := NewEngine(c, build())
	q, _ := Parse("//a//b")
	m1, err := e1.EvalRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	// shortcut a → b
	d.AddIntraLink(0, b)
	e2 := NewEngine(c, build())
	m2, err := e2.EvalRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != 1 || len(m2) != 1 {
		t.Fatalf("matches: %v %v", m1, m2)
	}
	if m2[0].Score <= m1[0].Score {
		t.Errorf("shortcut did not improve score: %f vs %f", m2[0].Score, m1[0].Score)
	}
}

func TestParseRoundTripString(t *testing.T) {
	q, err := Parse("//a/b//c")
	if err != nil {
		t.Fatal(err)
	}
	if q.String() != "//a/b//c" {
		t.Errorf("String() = %q", q.String())
	}
}
