package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hopi/internal/core"
	"hopi/internal/gen"
	"hopi/internal/graph"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

func equivExprs() []string {
	return []string{
		"//r//e", "/r/e", "//e//e", "//r//r", "//r/*", "//*//e", "/r//e//e", "//*//*",
	}
}

// cyclicCollection generates a random collection with cross-document
// links and guaranteed document-level link cycles.
func cyclicCollection(seed int64) *xmlmodel.Collection {
	return gen.Random(gen.RandomConfig{
		Docs: 8, MaxElems: 9, Links: 12, Seed: seed, LinkCycle: true,
	})
}

// equivIndexes returns the indexes the equivalence tests hold the
// kernels to Reference on: random cyclic collections for seeds
// 0..cyclic-1, whose elements hang under random earlier elements, then
// treeIndex's maintained collections with intra-document links and
// tombstoned and modified documents.
func equivIndexes(t *testing.T, cyclic int) []*core.Index {
	t.Helper()
	var out []*core.Index
	for seed := int64(0); seed < int64(cyclic); seed++ {
		ix, err := core.Build(cyclicCollection(seed), core.Options{
			Partitioner: core.PartSingle, Join: core.JoinNewHBar, WithDistance: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ix)
	}
	for seed := int64(0); seed < 4; seed++ {
		out = append(out, treeIndex(t, seed))
	}
	return out
}

// TestSemijoinEquivalence: on random cyclic collections and the tree
// collections, the // step's candidate test, tree first, answers
// exactly as Reference, through Eval and through one AdvanceFrontier
// call per step.
func TestSemijoinEquivalence(t *testing.T) {
	for fixture, ix := range equivIndexes(t, 8) {
		c := ix.Collection()
		e := NewEngine(c, ix)
		for _, expr := range equivExprs() {
			q, err := Parse(expr)
			if err != nil {
				t.Fatal(err)
			}
			want := Reference(c, q, false)
			stepped := e.SeedFrontier(q.Steps[0])
			for _, step := range q.Steps[1:] {
				if stepped, err = e.AdvanceFrontier(context.Background(), stepped, step); err != nil {
					t.Fatal(err)
				}
			}
			for name, got := range map[string][]int32{"Eval": e.Eval(q), "AdvanceFrontier": stepped} {
				if len(got) != len(want) {
					t.Fatalf("fixture %d %q %s: got %d matches %v, want %d", fixture, expr, name, len(got), got, len(want))
				}
				if !slices.IsSorted(got) {
					t.Fatalf("fixture %d %q %s: %v not ascending", fixture, expr, name, got)
				}
				for _, id := range got {
					if _, ok := want[id]; !ok {
						t.Fatalf("fixture %d %q %s: spurious match %d", fixture, expr, name, id)
					}
				}
			}
		}
	}
}

// TestSemijoinRankedEquivalence: the ranked kernel agrees with
// Reference on elements and exact scores.
func TestSemijoinRankedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := cyclicCollection(seed)
		ix, err := core.Build(c, core.Options{
			Partitioner: core.PartSingle, Join: core.JoinNewHBar, WithDistance: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, ix)
		for _, expr := range equivExprs() {
			q, err := Parse(expr)
			if err != nil {
				t.Fatal(err)
			}
			want := Reference(c, q, true)
			got, err := e.EvalRanked(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %q: got %d ranked matches, want %d", seed, expr, len(got), len(want))
			}
			for _, m := range got {
				ws, ok := want[m.Element]
				if !ok {
					t.Fatalf("seed %d %q: spurious ranked match %d", seed, expr, m.Element)
				}
				if math.Abs(ws-m.Score) > 1e-12 {
					t.Fatalf("seed %d %q: element %d score %g, want %g", seed, expr, m.Element, m.Score, ws)
				}
				if len(m.Path) != len(q.Steps) {
					t.Fatalf("seed %d %q: witness path %v for %d steps", seed, expr, m.Path, len(q.Steps))
				}
			}
		}
	}
}

// TestSemijoinCyclicSelfMatch pins the documented //a//a semantics on
// a hand-built cyclic collection: elements on a link cycle match
// themselves, everything else does not, and ranked self-matches score
// by the shortest cycle length.
func TestSemijoinCyclicSelfMatch(t *testing.T) {
	c := xmlmodel.NewCollection()
	d1 := xmlmodel.NewDocument("a.xml", "a")
	x1 := d1.AddElement(0, "x")
	c.AddDocument(d1)
	d2 := xmlmodel.NewDocument("b.xml", "a")
	x2 := d2.AddElement(0, "x")
	c.AddDocument(d2)
	d3 := xmlmodel.NewDocument("c.xml", "a") // acyclic bystander
	c.AddDocument(d3)
	// cycle: a.xml/x → b.xml root → b.xml/x → a.xml root → a.xml/x
	if err := c.AddLink(c.GlobalID(0, x1), c.GlobalID(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(c.GlobalID(1, x2), c.GlobalID(0, 0)); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartSingle, Join: core.JoinNewHBar, WithDistance: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	q, _ := Parse("//a//a")
	got := e.Eval(q)
	// both roots are on the 4-cycle; the bystander root is not
	if len(got) != 2 || got[0] != c.GlobalID(0, 0) || got[1] != c.GlobalID(1, 0) {
		t.Fatalf("//a//a = %v, want the two cyclic roots", got)
	}
	q2, _ := Parse("//x//x")
	if got2 := e.Eval(q2); len(got2) != 2 {
		t.Fatalf("//x//x = %v, want both cyclic x elements", got2)
	}
	// ranked: each root's best //a//a witness is the *other* root at
	// distance 2 (the 4-cycle's self path, distance 4, scores lower)
	matches, err := e.EvalRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("ranked //a//a = %+v", matches)
	}
	for _, m := range matches {
		if m.Score != 1.0/3.0 {
			t.Errorf("//a//a score %g, want 1/3", m.Score)
		}
	}
	// tree-only sanity: on the bystander document alone no tag
	// self-matches (XPath behavior preserved without links)
	q3, _ := Parse("//x//a")
	if got := e.Eval(q3); len(got) != 2 {
		t.Fatalf("//x//a = %v, want both roots via the cycle", got)
	}
}

// TestRankedSelfMatchScoresByCycleLength isolates the cyclic
// self-match: one element whose only //-path to itself is its own
// cycle must score 1/(1+cycleLen).
func TestRankedSelfMatchScoresByCycleLength(t *testing.T) {
	c := xmlmodel.NewCollection()
	d := xmlmodel.NewDocument("solo.xml", "r")
	a := d.AddElement(0, "a")
	d.AddIntraLink(a, 0) // cycle a → root → a of length 2
	c.AddDocument(d)
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartWhole, Join: core.JoinNewHBar, WithDistance: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	q, _ := Parse("//a//a")
	matches, err := e.EvalRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Element != c.GlobalID(0, a) {
		t.Fatalf("ranked //a//a = %+v, want the single cyclic a", matches)
	}
	if matches[0].Score != 1.0/3.0 {
		t.Errorf("self-match score %g, want 1/(1+2)", matches[0].Score)
	}
	if want := Reference(c, q, true); len(want) != 1 || want[matches[0].Element] != matches[0].Score {
		t.Errorf("Reference %v disagrees with %+v", want, matches)
	}
}

// TestRankedSelfMatchWinsTie: candidate c lies on a 2-cycle, and a
// frontier element g with a larger index reaches c at distance 2 too.
// Both score 1/3, so the tie goes to the smaller frontier index: c's
// witness is c itself. The kernel offers the self-match only when the
// score collected so far is at most a third of c's own, and this is
// the case where it is exactly a third. The cover is c-centered, so
// the labels alone never join c back to itself (Lout(c) and Lin(c) are
// empty): only the self-match finds the cycle.
func TestRankedSelfMatchWinsTie(t *testing.T) {
	c := xmlmodel.NewCollection()
	cd := xmlmodel.NewDocument("c.xml", "a")
	cd.AddIntraLink(cd.AddElement(0, "x"), 0) // c → x → c
	c.AddDocument(cd)
	gd := xmlmodel.NewDocument("g.xml", "a")
	gd.AddElement(0, "y")
	c.AddDocument(gd)
	const cID, x, g, y = 0, 1, 2, 3
	if err := c.AddLink(y, cID); err != nil { // g → y → c
		t.Fatal(err)
	}
	cov := twohop.NewCover(4, true)
	cov.AddIn(x, cID, 1)
	cov.AddOut(x, cID, 1)
	cov.AddOut(y, cID, 1)
	cov.AddOut(g, cID, 2)
	cov.AddIn(y, g, 1)
	ix := core.NewFromCover(c, cov)
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	if d, _ := ix.Distance(g, cID); d != 2 || ix.CycleDistance(cID) != 2 {
		t.Fatalf("fixture: dist(g, c) = %d, cycle through c %d, want 2 and 2", d, ix.CycleDistance(cID))
	}
	q, _ := Parse("//a//a")
	matches, err := NewEngine(c, ix).EvalRanked(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Element != cID || matches[0].Score != 1.0/3.0 {
		t.Fatalf("ranked //a//a = %+v, want c at 1/3", matches)
	}
	if w := matches[0].Path[0]; w != cID {
		t.Errorf("c's witness is %d, want c itself", w)
	}
}

// TestSemijoinConcurrentReaders hammers one shared engine from many
// goroutines (meaningful under -race): the scratch pools and shared
// postings must hold up, and every result must stay equal to the
// single-threaded answer.
func TestSemijoinConcurrentReaders(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(120, 3))
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartClosureBudget, ClosureBudget: 100_000,
		Join: core.JoinNewHBar, WithDistance: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	exprs := []string{"//article//author", "//article//cite", "//*//para", "//abstract//para"}
	type answer struct {
		ids    []int32
		ranked []Match
	}
	want := map[string]answer{}
	for _, expr := range exprs {
		q, _ := Parse(expr)
		r, err := e.EvalRanked(q)
		if err != nil {
			t.Fatal(err)
		}
		want[expr] = answer{ids: e.Eval(q), ranked: r}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				expr := exprs[(w+i)%len(exprs)]
				q, _ := Parse(expr)
				got := e.Eval(q)
				exp := want[expr]
				if len(got) != len(exp.ids) {
					errs <- errf("%s: got %d ids, want %d", expr, len(got), len(exp.ids))
					return
				}
				for j := range got {
					if got[j] != exp.ids[j] {
						errs <- errf("%s: id[%d] = %d, want %d", expr, j, got[j], exp.ids[j])
						return
					}
				}
				r, err := e.EvalRanked(q)
				if err != nil {
					errs <- err
					return
				}
				if len(r) != len(exp.ranked) {
					errs <- errf("%s: got %d ranked, want %d", expr, len(r), len(exp.ranked))
					return
				}
				for j := range r {
					if r[j].Element != exp.ranked[j].Element || r[j].Score != exp.ranked[j].Score {
						errs <- errf("%s: ranked[%d] diverged", expr, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// TestRankedRequiresDistanceUniformly: ranked descendant evaluation on
// a non-distance index errors for a one-element frontier as for a full
// one — the kernel must not silently read meaningless Dist fields.
func TestRankedRequiresDistanceUniformly(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(60, 7))
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartClosureBudget, ClosureBudget: 100_000,
		Join: core.JoinNewHBar, Seed: 7, // WithDistance deliberately off
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	q, _ := Parse("//article//author")
	if _, err := e.EvalRanked(q); err == nil {
		t.Error("ranked query on non-distance index succeeded")
	}
	one := map[int32]float64{e.Candidates("article")[0]: 1}
	if _, err := e.AdvanceRankedFrontier(context.Background(), one, q.Steps[1]); err == nil {
		t.Error("ranked step from one element on non-distance index succeeded")
	}
	// unranked evaluation stays available without distances
	if got := e.Eval(q); len(got) == 0 {
		t.Error("unranked query broke")
	}
}

// TestRankedWitnessPaths: every ranked match carries a witness path with
// one element per step, each element connected to the previous one by
// the step's axis, and the path's score Π 1/(1+dist) equal to Score.
func TestRankedWitnessPaths(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := cyclicCollection(seed)
		ix, err := core.Build(c, core.Options{
			Partitioner: core.PartSingle, Join: core.JoinNewHBar, WithDistance: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, ix)
		for _, expr := range equivExprs() {
			q, _ := Parse(expr)
			matches, err := e.EvalRanked(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range matches {
				if len(m.Path) != len(q.Steps) || m.Path[len(m.Path)-1] != m.Element {
					t.Fatalf("seed %d %q: path %v for match %d", seed, expr, m.Path, m.Element)
				}
				score := 1.0
				for i := 1; i < len(m.Path); i++ {
					u, v := m.Path[i-1], m.Path[i]
					var d uint32
					switch {
					case q.Steps[i].Axis == AxisChild:
						if e.parentOf(v) != u {
							t.Fatalf("seed %d %q: path %v: %d is not %d's child", seed, expr, m.Path, v, u)
						}
						d = 1
					case u == v:
						d = ix.CycleDistance(u)
					default:
						d, _ = ix.Distance(u, v)
					}
					if d == 0 || d == graph.InfDist {
						t.Fatalf("seed %d %q: path %v: %d does not reach %d", seed, expr, m.Path, u, v)
					}
					score /= float64(1 + d)
				}
				if score != m.Score {
					t.Fatalf("seed %d %q: path %v scores %g, match %g", seed, expr, m.Path, score, m.Score)
				}
			}
		}
	}
}

// TestRankedKernelMixedScores: from random frontiers carrying random
// scores — the case where a center's pareto chain holds more than one
// arrival — the // kernel agrees with a Distance-per-pair scoring of
// every (frontier, candidate) pair on every next-frontier element,
// score and witness.
func TestRankedKernelMixedScores(t *testing.T) {
	scores := []float64{1, 0.5, 1.0 / 3, 0.25, 0.2, 1.0 / 7, 0.1}
	for seed := int64(0); seed < 8; seed++ {
		c := cyclicCollection(seed)
		ix, err := core.Build(c, core.Options{
			Partitioner: core.PartSingle, Join: core.JoinNewHBar, WithDistance: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(c, ix)
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			var f rankedCols
			for _, id := range e.all {
				if rng.Intn(2) == 0 {
					f.add(id, scores[rng.Intn(len(scores))], -1)
				}
			}
			for _, tag := range []string{"*", "e", "r"} {
				step := Step{Axis: AxisDescendant, Tag: tag}
				got, err := e.advanceRanked(&Query{Steps: []Step{step}}, step, &f, &canceller{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := pairwiseRanked(t, e, &f, tag)
				if !slices.Equal(got.elems, want.elems) || !slices.Equal(got.score, want.score) ||
					!slices.Equal(got.parent, want.parent) {
					t.Fatalf("seed %d trial %d //%s: kernel %+v, pairwise %+v", seed, trial, tag, got, want)
				}
			}
		}
	}
}

// pairwiseRanked scores a ranked // step pair by pair: per candidate,
// the best score over all frontier elements, ties to the smallest, with
// self-matches over the shortest cycle.
func pairwiseRanked(t *testing.T, e *Engine, f *rankedCols, tag string) rankedCols {
	var next rankedCols
	for _, c := range e.candidates(tag) {
		best, from := -1.0, int32(-1)
		for i, fe := range f.elems {
			d := e.ix.CycleDistance(fe)
			if c != fe {
				var err error
				if d, err = e.ix.Distance(fe, c); err != nil {
					t.Fatal(err)
				}
			}
			if d == graph.InfDist || d == 0 {
				continue
			}
			if s := f.score[i] / float64(1+d); s > best {
				best, from = s, int32(i)
			}
		}
		if from >= 0 {
			next.add(c, best, from)
		}
	}
	return next
}
