package query

import (
	"context"
	"fmt"
	"slices"

	"hopi/internal/graph"
)

// Exported single-step evaluation primitives. The distributed query
// tier (internal/shardrouter) evaluates a path expression shard by
// shard: every shard runs the *local* part of each step with the same
// evaluators the single-index engine uses, and the router joins the
// cross-shard part over shipped frontier arrivals. These wrappers
// expose exactly one step of the engine's evaluation — seeding,
// boolean advance, ranked advance — over an explicit frontier, so the
// shard-local semantics (proper-path //, cyclic self-match, ranked
// scoring) are the engine's own code, not a re-implementation.

// Candidates returns the sorted global IDs of live elements matching a
// tag test ("*" matches any element). The returned slice is shared;
// callers must not mutate it.
func (e *Engine) Candidates(tag string) []int32 { return e.candidates(tag) }

// CandidateBits is Candidates as a set over element IDs; callers must
// not modify it.
func (e *Engine) CandidateBits(tag string) graph.Bitset { return e.candidateBits(tag) }

// SeedFrontier evaluates an initial step: the tag's candidates,
// root-anchored when the axis is AxisChild (a leading "/").
func (e *Engine) SeedFrontier(step Step) []int32 {
	return e.initialFrontier(step, nil)
}

// AdvanceFrontier evaluates one boolean step from an explicit
// frontier with EvalCtx's own step scan (the parent test for "/", the
// candidate test for "//"). Descendant steps match over proper paths of
// length ≥ 1 including the cyclic self-match.
func (e *Engine) AdvanceFrontier(ctx context.Context, frontier []int32, step Step) ([]int32, error) {
	if len(frontier) == 0 {
		return nil, nil
	}
	return e.advance(frontier, step, &canceller{ctx: ctx}, nil)
}

// AdvanceRankedFrontier evaluates one ranked step from an explicit
// frontier of element→accumulated-score states and returns the next
// frontier's scores: per candidate, max over frontier elements f of
// score_f/(1+dist), with dist the shard-local shortest path (cycle
// distance for self-matches). The step is the ranked pipeline's own,
// run over the frontier sorted into columns. Witness paths are not
// returned — the distributed tier reports matches without per-step
// witnesses.
func (e *Engine) AdvanceRankedFrontier(ctx context.Context, frontier map[int32]float64, step Step) (map[int32]float64, error) {
	if len(frontier) == 0 {
		return nil, nil
	}
	in := rankedCols{elems: make([]int32, 0, len(frontier))}
	for id := range frontier {
		in.elems = append(in.elems, id)
	}
	slices.Sort(in.elems)
	in.score = make([]float64, len(in.elems))
	for i, id := range in.elems {
		in.score[i] = frontier[id]
	}
	next, err := e.advanceRanked(&Query{Steps: []Step{step}}, step, &in, &canceller{ctx: ctx}, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[int32]float64, len(next.elems))
	for i, id := range next.elems {
		out[id] = next.score[i]
	}
	return out, nil
}

// BulkClosure computes the full from×to reachability matrix in one
// pass over the 2-hop labels (row-major: dist[i*len(to)+j] is
// from[i]→to[j]). With withDist, entries are the cover's shortest-path
// lengths — value-identical to Cover.Distance per pair — and
// graph.InfDist when unreachable; without, 1 marks reachability. The
// label join inverts the to-side Lin labels (plus the implicit self
// entries the cover omits) into a center→columns map, so each from row
// costs one scan of Lout(from) instead of one merge-intersect per
// pair: the meeting-center cases enumerated are exactly Distance's —
// v ∈ Lout(u) meets v's implicit self, u ∈ Lin(v) meets u's, the
// Lout∩Lin intersection meets directly, and u == v meets self-to-self
// at distance 0.
func (e *Engine) BulkClosure(ctx context.Context, from, to []int32, withDist bool) ([]uint32, error) {
	if withDist && !e.ix.Cover().WithDist {
		return nil, fmt.Errorf("query: closure with distances: index built without distance information")
	}
	cov := e.ix.Cover()
	type tEntry struct {
		col int
		d   uint32
	}
	byCenter := make(map[int32][]tEntry, len(to))
	for j, t := range to {
		byCenter[t] = append(byCenter[t], tEntry{col: j})
		for _, en := range cov.Lin(t) {
			d := en.Dist
			if !withDist {
				d = 0 // dist fields are not meaningful without WithDist
			}
			byCenter[en.Center] = append(byCenter[en.Center], tEntry{col: j, d: d})
		}
	}
	nTo := len(to)
	dist := make([]uint32, len(from)*nTo)
	for i := range dist {
		dist[i] = graph.InfDist
	}
	for i, f := range from {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row := dist[i*nTo : (i+1)*nTo]
		meet := func(center int32, df uint32) {
			for _, te := range byCenter[center] {
				if d := df + te.d; d < row[te.col] {
					row[te.col] = d
				}
			}
		}
		meet(f, 0)
		for _, en := range cov.Lout(f) {
			d := en.Dist
			if !withDist {
				d = 0
			}
			meet(en.Center, d)
		}
	}
	if !withDist {
		for i := range dist {
			if dist[i] != graph.InfDist {
				dist[i] = 1
			}
		}
	}
	return dist, nil
}

// ReachesAny reports, per to[j], whether some element of from reaches
// it (reflexively: from[i] == to[j] counts) — the OR of BulkClosure's
// column j without materializing the |from|×|to| matrix. t is reached
// when it is in from, or else when the // candidate test over from
// accepts it: the tree, the link-arc walk, and only when the walk's
// budget runs out the frontier's Lout centers and Lin(t), the meeting
// cases BulkClosure enumerates.
func (e *Engine) ReachesAny(ctx context.Context, from, to []int32) ([]bool, error) {
	out := make([]bool, len(to))
	if len(from) == 0 || len(to) == 0 {
		return out, nil
	}
	rt := reachTest{e: e}
	rt.start(from)
	defer rt.release()
	for j, t := range to {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[j] = rt.fset.Has(int(t)) || rt.reaches(t)
	}
	return out, nil
}
