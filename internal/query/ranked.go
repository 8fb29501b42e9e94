package query

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"hopi/internal/graph"
	"hopi/internal/twohop"
)

// Ranked evaluation (§5.1) runs one pipeline for every caller —
// EvalRanked, ranked streams, and the shard-local AdvanceRankedFrontier:
// the frontier of each step is a set of columns, a // step is one label
// kernel over them (advanceRankedDescendant), and a limited run selects
// its page from the finished last column.
//
// Witness ties are broken by the smallest frontier element, so a match
// reports the same Path whether it comes from a limited page, a resumed
// page or the unlimited run.

// rankedCols is one step's ranked frontier in columns: elems ascending,
// score[i] the accumulated connection score of elems[i], and parent[i]
// the index of its witness predecessor in the previous step's columns
// (nil for the seed). Witness paths are rebuilt from parent indices only
// for the matches returned.
type rankedCols struct {
	elems  []int32
	score  []float64
	parent []int32
}

func (c *rankedCols) add(id int32, score float64, parent int32) {
	c.elems = append(c.elems, id)
	c.score = append(c.score, score)
	c.parent = append(c.parent, parent)
}

// indexOf returns id's column index, or -1 when id is not in the frontier.
func (c *rankedCols) indexOf(id int32) int32 {
	if i, ok := slices.BinarySearch(c.elems, id); ok {
		return int32(i)
	}
	return -1
}

// order returns the column indices of the ranked result — score desc,
// element asc — strictly after the resume position, only the first k
// when k > 0.
func (c *rankedCols) order(after *matchPos, k int) []int32 {
	out := make([]int32, 0, len(c.elems))
	for i := range c.elems {
		if after == nil || after.before(c.score[i], c.elems[i]) {
			out = append(out, int32(i))
		}
	}
	slices.SortFunc(out, func(i, j int32) int {
		if c.score[i] != c.score[j] {
			return cmp.Compare(c.score[j], c.score[i])
		}
		return cmp.Compare(c.elems[i], c.elems[j])
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// EvalRanked evaluates the query and ranks matches by connection
// length: each step contributes 1/(1+dist). The index must carry
// distance information. Results are sorted by descending score, ties
// by element ID.
func (e *Engine) EvalRanked(q *Query) ([]Match, error) {
	return e.EvalRankedCtx(context.Background(), q)
}

// EvalRankedCtx is EvalRanked with cooperative cancellation, mirroring
// EvalCtx.
func (e *Engine) EvalRankedCtx(ctx context.Context, q *Query) ([]Match, error) {
	return e.rankedMatches(ctx, q, nil, 0, nil)
}

// rankedMatches evaluates every step of a ranked query and returns the
// matches strictly after the resume position, the first `limit` of them
// when limit > 0.
func (e *Engine) rankedMatches(ctx context.Context, q *Query, after *matchPos, limit int, plan *Plan) ([]Match, error) {
	cc := &canceller{ctx: ctx}
	seed := e.initialFrontier(q.Steps[0], plan.step(0))
	ones := make([]float64, len(seed))
	for i := range ones {
		ones[i] = 1
	}
	trail := []rankedCols{{elems: seed, score: ones}}
	for si := 1; si < len(q.Steps); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(trail[si-1].elems) == 0 {
			plan.skipFrom(si)
			return nil, nil
		}
		next, err := e.advanceRanked(q, q.Steps[si], &trail[si-1], cc, plan.step(si))
		if err != nil {
			return nil, err
		}
		trail = append(trail, next)
	}
	last := &trail[len(trail)-1]
	order := last.order(after, limit)
	out := make([]Match, len(order))
	for j, i := range order {
		path := make([]int32, len(trail))
		for s, k := len(trail)-1, i; s >= 0; s-- {
			path[s] = trail[s].elems[k]
			if s > 0 {
				k = trail[s].parent[k]
			}
		}
		out[j] = Match{Element: last.elems[i], Score: last.score[i], Path: path}
	}
	return out, nil
}

// advanceRanked evaluates one ranked step: a child step halves the
// parent's score, a // step runs the label kernel.
func (e *Engine) advanceRanked(q *Query, step Step, f *rankedCols, cc *canceller, sp *StepPlan) (rankedCols, error) {
	if err := e.checkRankedStep(q, step); err != nil {
		return rankedCols{}, err
	}
	if step.Axis == AxisChild {
		return e.advanceRankedChild(f, step, cc, sp)
	}
	return e.advanceRankedDescendant(f, step, cc, sp)
}

// checkRankedStep fails ranked descendant steps uniformly on
// non-distance indexes — independent of the frontier or collection
// size — instead of the kernel reading meaningless Dist fields.
func (e *Engine) checkRankedStep(q *Query, step Step) error {
	if step.Axis == AxisDescendant && len(e.candidates(step.Tag)) > 0 && !e.ix.Cover().WithDist {
		return fmt.Errorf("query: ranked evaluation of %q: index built without distance information", q.String())
	}
	return nil
}

func (e *Engine) advanceRankedChild(f *rankedCols, step Step, cc *canceller, sp *StepPlan) (rankedCols, error) {
	var next rankedCols
	cands := e.candidates(step.Tag)
	for _, c := range cands {
		if err := cc.check(); err != nil {
			return rankedCols{}, err
		}
		if p := e.parentOf(c); p >= 0 {
			if i := f.indexOf(p); i >= 0 {
				next.add(c, f.score[i]/2, i) // parent-child hop: dist 1
			}
		}
	}
	sp.record(ModeChild, len(cands), len(f.elems), len(next.elems))
	return next, nil
}

// arrival is one way the frontier reaches a center: frontier column
// index src, with accumulated score, over dist Lout hops. prev links the
// center's pareto chain, -1 at its head.
type arrival struct {
	score float64
	dist  uint32
	src   int32
	prev  int32
}

// pick tracks a candidate's best arrival: highest score, ties to the
// smallest frontier index — the smallest frontier element.
type pick struct {
	score float64
	src   int32
}

func (b *pick) offer(score float64, src int32) {
	if score > b.score || (score == b.score && src < b.src) {
		b.score, b.src = score, src
	}
}

// kernelArena is the // kernel's per-step scratch, pooled on the engine
// so a step allocates only its output columns. tail and self are dense
// over element IDs and valid only where the step's center bitset is set,
// so they are never cleared.
type kernelArena struct {
	order []int32        // frontier indices, score desc then index asc
	arr   []arrival      // every center's pareto chain
	tail  []int32        // center → last entry of its chain in arr, or -1
	self  []int32        // center → its own frontier index, or -1
	buf   []twohop.Entry // merge buffer for LoutBuf/LinBuf
}

func (e *Engine) getArena(n int) *kernelArena {
	a, _ := e.arenas.Get().(*kernelArena)
	if a == nil {
		a = new(kernelArena)
	}
	if len(a.tail) < n {
		a.tail, a.self = make([]int32, n), make([]int32, n)
	}
	return a
}

// arrive adds an arrival to center x's pareto chain over (dist ↓,
// score ↑): an arrival no nearer and no better than a kept one can never
// win score/(1+dist+t) for any Lin distance t. Arrivals come score
// descending, ties in frontier order, so the chain's tail holds the
// lowest score and the smallest distance so far. An arrival no nearer
// than the tail is dominated (at equal distance and score, by a smaller
// frontier element); a nearer one with the tail's score replaces it;
// any other nearer one extends the chain.
func (a *kernelArena) arrive(x int32, ar arrival) {
	t := a.tail[x]
	if t >= 0 {
		last := &a.arr[t]
		if ar.dist >= last.dist {
			return
		}
		if ar.score == last.score {
			ar.prev = last.prev
			*last = ar
			return
		}
	}
	ar.prev = t
	a.tail[x] = int32(len(a.arr))
	a.arr = append(a.arr, ar)
}

// advanceRankedDescendant is the ranked // kernel. Every frontier
// element f arrives at each of its Lout centers, and implicitly at
// itself over distance 0 (§3.4); the stored arrivals are pruned into one
// pareto chain per center as they come. The tag's candidates are then
// walked in ID order, as in the unranked candidate test, and each c
// scores max_f score_f / (1 + dist(f, c)), dist the §5.1 minimum over
// label pairs, from three cases:
//
//   - direct, c ∈ Lout(f): the chain at center c;
//   - joined, f ∈ Lin(c) or Lout(f) ∩ Lin(c): for each Lin(c) entry,
//     the implicit arrival and the chain at its center;
//   - cyclic self-match, c = f: f's shortest cycle, asked last and
//     only while it can still win.
//
// The implicit arrival is kept out of the chain because it must not
// serve its own element as a direct candidate — that would claim a
// zero-length path. Over a uniform-score frontier (every 2-step query)
// each chain holds one arrival: the min-plus sweep best[x] = min_f
// d(f, x), ties to the smallest f.
func (e *Engine) advanceRankedDescendant(f *rankedCols, step Step, cc *canceller, sp *StepPlan) (rankedCols, error) {
	cov := e.ix.Cover()
	n := e.scratchSize()
	a := e.getArena(n)
	defer e.arenas.Put(a)
	mark := e.scratch.Get(n)
	defer e.scratch.Put(mark)

	a.order = a.order[:0]
	for i, fe := range f.elems {
		mark.Set(int(fe))
		a.self[fe], a.tail[fe] = int32(i), -1
		a.order = append(a.order, int32(i))
	}
	byScore := func(i, j int32) int {
		if f.score[i] != f.score[j] {
			return cmp.Compare(f.score[j], f.score[i])
		}
		return cmp.Compare(i, j)
	}
	if !slices.IsSortedFunc(a.order, byScore) {
		slices.SortFunc(a.order, byScore)
	}
	a.arr = a.arr[:0]
	touched, centers := 0, 0
	for _, i := range a.order {
		if err := cc.check(); err != nil {
			return rankedCols{}, err
		}
		lout := cov.LoutBuf(f.elems[i], &a.buf)
		touched += len(lout)
		for _, en := range lout {
			x := en.Center
			if !mark.Has(int(x)) {
				mark.Set(int(x))
				a.self[x], a.tail[x] = -1, -1
			}
			if a.tail[x] < 0 {
				centers++
			}
			a.arrive(x, arrival{score: f.score[i], dist: en.Dist, src: i})
		}
	}

	// Score each candidate over its Lin side.
	var next rankedCols
	cands := e.candidates(step.Tag)
	for _, c := range cands {
		if err := cc.check(); err != nil {
			return rankedCols{}, err
		}
		b := pick{score: -1, src: -1}
		if mark.Has(int(c)) {
			for t := a.tail[c]; t >= 0; t = a.arr[t].prev {
				ar := &a.arr[t]
				b.offer(ar.score/float64(1+ar.dist), ar.src)
			}
		}
		lin := cov.LinBuf(c, &a.buf)
		touched += len(lin)
		for _, en := range lin {
			x := en.Center
			if !mark.Has(int(x)) {
				continue
			}
			if s := a.self[x]; s >= 0 {
				b.offer(f.score[s]/float64(1+en.Dist), s)
			}
			for t := a.tail[x]; t >= 0; t = a.arr[t].prev {
				ar := &a.arr[t]
				b.offer(ar.score/float64(1+ar.dist+en.Dist), ar.src)
			}
		}
		// A cycle has at least two edges, so the self-match scores at
		// most f.score[s]/3: past a better offer it cannot win, and at
		// an equal one it still can, on a smaller frontier index.
		if s := a.self[c]; mark.Has(int(c)) && s >= 0 && b.score <= f.score[s]/3 {
			if d := e.ix.CycleDistance(c); d != graph.InfDist {
				b.offer(f.score[s]/float64(1+d), s)
			}
		}
		if b.src >= 0 {
			next.add(c, b.score, b.src)
		}
	}
	if sp != nil {
		sp.Centers = centers
	}
	sp.record(ModeRankedDescendant, len(cands), len(f.elems), len(next.elems))
	sp.touch(touched)
	return next, nil
}
