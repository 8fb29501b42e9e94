package query

import (
	"math/rand"
	"slices"
	"testing"

	"hopi/internal/core"
	"hopi/internal/xmlmodel"
)

// TestDeriveMatchesNewEngine chains derived engines across random
// document inserts and deletions and checks each against an engine
// built from scratch on the same state: identical candidate lists and
// identical answers, with the older engine's cached tag bitsets warm
// (so carried-over and patched bitsets are both exercised).
func TestDeriveMatchesNewEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := cyclicCollection(3)
	ix, err := core.Build(c, core.Options{Partitioner: core.PartSingle, Join: core.JoinNewHBar, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := ix.Clone()
	eng := NewEngine(snap.Collection(), snap)
	var queries []*Query
	for _, expr := range append(equivExprs(), "//x//e", "//x") {
		q, err := Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for step := 0; step < 24; step++ {
		for _, q := range queries {
			eng.Eval(q) // warm the tag bitsets the next engine inherits
		}
		switch live := c.LiveDocIndexes(); {
		case step%3 == 2 && len(live) > 2:
			if _, err := ix.DeleteDocument(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		default:
			d := xmlmodel.NewDocument("", []string{"r", "x"}[rng.Intn(2)])
			for i := 1; i < 2+rng.Intn(4); i++ {
				d.AddElement(int32(rng.Intn(i)), []string{"e", "x"}[rng.Intn(2)])
			}
			di, err := ix.InsertDocument(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.InsertEdge(c.GlobalID(di, 0), c.GlobalID(live[rng.Intn(len(live))], 0)); err != nil {
				t.Fatal(err)
			}
		}
		snap = ix.Clone()
		eng = eng.Derive(snap.Collection(), snap)
		fresh := NewEngine(snap.Collection(), snap)
		for tag, ids := range snap.Collection().ElementsByTag() {
			if got := eng.Candidates(tag); !slices.Equal(got, ids) {
				t.Fatalf("step %d: derived %q candidates %v, want %v", step, tag, got, ids)
			}
		}
		if got, want := eng.Candidates("*"), fresh.Candidates("*"); !slices.Equal(got, want) {
			t.Fatalf("step %d: derived * candidates %v, want %v", step, got, want)
		}
		for _, q := range queries {
			if got, want := eng.Eval(q), fresh.Eval(q); !slices.Equal(got, want) {
				t.Fatalf("step %d: %s: derived engine %v, fresh engine %v", step, q, got, want)
			}
		}
	}
}
