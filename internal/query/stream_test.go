package query

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hopi/internal/core"
	"hopi/internal/gen"
)

// drainStream collects a stream's results.
func drainStream(t *testing.T, e *Engine, q *Query, opts StreamOpts) []Match {
	t.Helper()
	st, err := e.Stream(context.Background(), q, opts)
	if err != nil {
		t.Fatalf("%s: stream: %v", q.String(), err)
	}
	defer st.Close()
	var out []Match
	for st.Next() {
		out = append(out, Match{Element: st.Element(), Score: st.Score(), Path: st.Path()})
	}
	if err := st.Err(); err != nil {
		t.Fatalf("%s: stream err: %v", q.String(), err)
	}
	return out
}

// sameMatch compares element, score and witness path.
func sameMatch(a, b Match) bool {
	return a.Element == b.Element && a.Score == b.Score && slices.Equal(a.Path, b.Path)
}

func matchElems(ms []Match) []int32 {
	out := make([]int32, len(ms))
	for i, m := range ms {
		out[i] = m.Element
	}
	return out
}

// TestStreamEquivalence: on random cyclic collections and the tree
// collections (equivIndexes), the unlimited answer equals Reference,
// and draining a stream with every limit and from every resume point
// yields exactly the corresponding slice of it — plain and ranked,
// elements, scores and witness paths. A limited plain scan may stop
// before its first tree-failing candidate, or build X past its resume
// point.
func TestStreamEquivalence(t *testing.T) {
	for fixture, ix := range equivIndexes(t, 6) {
		c := ix.Collection()
		rng := rand.New(rand.NewSource(int64(fixture)))
		e := NewEngine(c, ix)
		for _, expr := range equivExprs() {
			q, err := Parse(expr)
			if err != nil {
				t.Fatal(err)
			}
			full := e.Eval(q)
			fullRanked, err := e.EvalRanked(q)
			if err != nil {
				t.Fatal(err)
			}
			want, wantRanked := Reference(c, q, false), Reference(c, q, true)
			if len(full) != len(want) || len(fullRanked) != len(wantRanked) {
				t.Fatalf("fixture %d %q: %d matches, %d ranked; Reference %d", fixture, expr, len(full), len(fullRanked), len(want))
			}
			for _, id := range full {
				if _, ok := want[id]; !ok {
					t.Fatalf("fixture %d %q: spurious match %d", fixture, expr, id)
				}
			}
			for _, m := range fullRanked {
				if ws, ok := wantRanked[m.Element]; !ok || math.Abs(ws-m.Score) > 1e-12 {
					t.Fatalf("fixture %d %q: ranked %+v, Reference score %g (present %v)", fixture, expr, m, ws, ok)
				}
			}

			// every limit from 0 (unlimited) past the result size
			for limit := 0; limit <= len(full)+2; limit++ {
				got := matchElems(drainStream(t, e, q, StreamOpts{Limit: limit}))
				want := full
				if limit > 0 && limit < len(full) {
					want = full[:limit]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("fixture %d %q limit %d: got %v, want %v", fixture, expr, limit, got, want)
				}
			}
			// resume from every position: the tail after element full[i]
			for i := 0; i < len(full); i++ {
				lim := rng.Intn(len(full) + 1)
				got := drainStream(t, e, q, StreamOpts{Limit: lim, HasAfter: true, After: full[i]})
				want := full[i+1:]
				if lim > 0 && lim < len(want) {
					want = want[:lim]
				}
				if !slices.Equal(matchElems(got), want) {
					t.Fatalf("fixture %d %q resume after %d limit %d: got %v, want %v",
						fixture, expr, full[i], lim, matchElems(got), want)
				}
			}

			// ranked: limited results are an exact prefix (elements,
			// scores AND witness paths) of the materialized ranking
			for limit := 0; limit <= len(fullRanked)+2; limit++ {
				got := drainStream(t, e, q, StreamOpts{Ranked: true, Limit: limit})
				want := fullRanked
				if limit > 0 && limit < len(fullRanked) {
					want = fullRanked[:limit]
				}
				if len(got) != len(want) {
					t.Fatalf("fixture %d %q ranked limit %d: got %d matches, want %d",
						fixture, expr, limit, len(got), len(want))
				}
				for j := range got {
					if !sameMatch(got[j], want[j]) {
						t.Fatalf("fixture %d %q ranked limit %d: [%d] = %+v, want %+v",
							fixture, expr, limit, j, got[j], want[j])
					}
				}
			}
			// ranked resume from every position
			for i := 0; i < len(fullRanked); i++ {
				lim := 1 + rng.Intn(len(fullRanked)+1)
				got := drainStream(t, e, q, StreamOpts{
					Ranked: true, Limit: lim,
					HasAfter: true, After: fullRanked[i].Element, AfterScore: fullRanked[i].Score,
				})
				want := fullRanked[i+1:]
				if lim < len(want) {
					want = want[:lim]
				}
				if len(got) != len(want) {
					t.Fatalf("fixture %d %q ranked resume %d limit %d: got %d, want %d",
						fixture, expr, i, lim, len(got), len(want))
				}
				for j := range got {
					if !sameMatch(got[j], want[j]) {
						t.Fatalf("fixture %d %q ranked resume %d: [%d] = %+v, want %+v",
							fixture, expr, i, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestStreamConcurrent hammers one shared engine with concurrent
// limited streams (meaningful under -race): pooled scratch bitsets
// must not leak state between cursors.
func TestStreamConcurrent(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(80, 5))
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartClosureBudget, ClosureBudget: 100_000,
		Join: core.JoinNewHBar, WithDistance: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	exprs := []string{"//article//author", "//abstract//para", "//*//cite"}
	want := map[string][]int32{}
	for _, expr := range exprs {
		q, _ := Parse(expr)
		want[expr] = e.Eval(q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				expr := exprs[(w+i)%len(exprs)]
				q, _ := Parse(expr)
				full := want[expr]
				limit := 1 + rng.Intn(len(full))
				st, err := e.Stream(context.Background(), q, StreamOpts{Limit: limit})
				if err != nil {
					errs <- err
					return
				}
				var got []int32
				for st.Next() {
					got = append(got, st.Element())
				}
				err = st.Err()
				st.Close()
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(got, full[:limit]) {
					errs <- errf("%s limit %d: diverged from prefix", expr, limit)
					return
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

// TestExplainPlan: the per-step report reflects the actual execution —
// the candidate test with and without a limit, every author answered by
// the tree and every title under //cite by the link-arc walk with no
// label read, fewer nodes walked under the limit, and the ranked kernel
// limited or not.
func TestExplainPlan(t *testing.T) {
	c := gen.DBLP(gen.DefaultDBLP(120, 9))
	ix, err := core.Build(c, core.Options{
		Partitioner: core.PartClosureBudget, ClosureBudget: 100_000,
		Join: core.JoinNewHBar, WithDistance: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, ix)
	q, _ := Parse("//article//author")

	full, err := e.Explain(context.Background(), q, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) != 2 || full.Steps[0].Mode != ModeSeed || full.Steps[1].Mode != ModeDescendant {
		t.Fatalf("full plan: %+v", full.Steps)
	}
	if full.Matches == 0 {
		t.Fatalf("full plan missing stats: %+v", full)
	}
	if full.Matches != full.Steps[1].FrontierOut {
		t.Fatalf("full plan: %d matches vs %d frontier-out", full.Matches, full.Steps[1].FrontierOut)
	}
	// every author sits under its article: the tree answers them all
	if st := full.Steps[1]; st.Postings != 0 || st.Centers != 0 || st.TreeMatches != full.Matches {
		t.Fatalf("//article//author read labels: %+v, want 0 postings, 0 centers, %d tree matches", st, full.Matches)
	}

	// a title is no cite's descendant in the tree, and a cite reaches it
	// over one link into its article: the link-arc walk decides every
	// title with no label read, and a limited run stops walking at its
	// 10th match
	qc, _ := Parse("//cite//title")
	fullC, err := e.Explain(context.Background(), qc, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := fullC.Steps[1]; fullC.Matches <= 10 || st.Postings != 0 || st.Centers != 0 ||
		st.WalkMatches != st.Candidates || st.Walked < fullC.Matches {
		t.Fatalf("//cite//title plan: %+v, want every title decided by the walk, at least one walked node per match, no label read", fullC)
	}
	lim, err := e.Explain(context.Background(), qc, false, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lim.Steps[1].Mode != ModeDescendant {
		t.Fatalf("limited plan mode: %+v", lim.Steps[1])
	}
	if lim.Matches != 10 {
		t.Fatalf("limited plan: %d matches, want 10", lim.Matches)
	}
	if l, f := lim.Steps[1], fullC.Steps[1]; l.Walked >= f.Walked || l.WalkMatches >= f.WalkMatches || l.Postings != 0 {
		t.Fatalf("limited run walked %d nodes for %d candidates, full run %d for %d — no early termination",
			l.Walked, l.WalkMatches, f.Walked, f.WalkMatches)
	}

	// every ranked // step, limited or not, runs the one label kernel
	ranked, err := e.Explain(context.Background(), q, true, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ranked.Steps[1].Mode != ModeRankedDescendant || ranked.Matches != 10 {
		t.Fatalf("ranked limited plan: %+v", ranked)
	}
	// a mixed-score frontier (scores diverge after the first //) too
	q3, _ := Parse("//article//cite//author")
	ranked3, err := e.Explain(context.Background(), q3, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ranked3.Steps[2].Mode != ModeRankedDescendant || ranked3.Matches != 5 {
		t.Fatalf("3-step ranked limited plan: %+v", ranked3)
	}
}
