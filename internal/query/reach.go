package query

import (
	"hopi/internal/graph"
	"hopi/internal/twohop"
)

// reachTest is the unranked // candidate test over one frontier F: does
// some f ∈ F reach c over a path of length ≥ 1? Three layers answer it,
// cheapest first, and each answer is exact:
//
//  1. the tree: a proper tree ancestor of c is in F;
//  2. the link arcs: a backward walk from c's tree path over the links
//     into it, and the links into their sources' tree paths, finds an
//     element of F, or ends without one;
//  3. the labels: X = centers(Lout(F)) and F ∪ X, marked once, against
//     c and Lin(c), and for c ∈ F the cycle test.
//
// The walk runs until the step's walk budget is spent; the candidate
// that spends it, and every later one, goes to the labels. Both
// stepScan (EvalCtx, Stream, Explain, AdvanceFrontier) and ReachesAny
// (the shard out-probe) test with it.
type reachTest struct {
	e        *Engine
	frontier []int32      // F, kept to mark X when the walk gives up
	n        int          // the scratch bitsets' capacity
	fset     graph.Bitset // F
	xset     graph.Bitset // X, the frontier's Lout centers; nil until marked
	fx       graph.Bitset // F ∪ X, what a candidate's Lin must meet
	cov      *twohop.Cover
	buf      []twohop.Entry // LoutBuf's and LinBuf's merge buffer
	span     docSpan        // the last candidate's document
	walk     arcWalk
	sp       *StepPlan
}

// arcWalk is the state of a reachTest's backward walks over the
// collection's link arcs.
type arcWalk struct {
	// budget is the number of walked nodes left before the step falls
	// back to the labels; the node that finds F is not charged (see
	// walkArcs).
	budget int
	// seen holds the sources of the walk under way and, once a walk
	// ends without reaching F, all of its sources: nothing that reaches
	// them is in F, so later walks stop there too. nil until a walk
	// first finds a link.
	seen  graph.Bitset
	queue []int32
	span  docSpan // the last source's document
}

// A step's walk budget, in walked nodes: minWalkBudget, plus X's
// estimated marking cost — |F| times the cover's mean Lout length, in
// label entries — over walkBudgetShare. A walked node (two document
// lookups, a tree-path test and the arcs into that path) costs about
// what marking 250 label entries does, so a step that spends its whole
// budget and then marks X anyway pays about a sixteenth more than
// marking X at once; minWalkBudget lets a small frontier take a walk
// of a few hops.
const (
	minWalkBudget   = 4
	walkBudgetShare = 4096
)

// markF marks the frontier in a scratch bitset.
func (rt *reachTest) markF(frontier []int32) {
	rt.n = rt.e.scratchSize()
	rt.fset = rt.e.scratch.Get(rt.n)
	for _, f := range frontier {
		rt.fset.Set(int(f))
	}
}

// start readies the // test over frontier: F marked, the walk budget
// set from |F| and the cover's mean Lout length, X not yet marked.
func (rt *reachTest) start(frontier []int32) {
	rt.markF(frontier)
	rt.frontier, rt.cov = frontier, rt.e.ix.Cover()
	rt.walk.budget = minWalkBudget
	if n := rt.cov.N(); n > 0 {
		// Size counts Lin and Lout entries: 2N lists
		rt.walk.budget += len(frontier) * (rt.cov.Size() / (2 * n)) / walkBudgetShare
	}
}

// reaches reports whether some f ∈ F reaches c over a path of length
// ≥ 1.
func (rt *reachTest) reaches(c int32) bool {
	if rt.e.treeReached(c, rt.fset, &rt.span) {
		if rt.sp != nil {
			rt.sp.TreeMatches++
		}
		return true
	}
	if rt.xset == nil {
		if found, decided := rt.walkArcs(c); decided {
			if rt.sp != nil {
				rt.sp.WalkMatches++
			}
			return found
		}
		rt.markX()
	}
	if rt.xset.Has(int(c)) {
		return true
	}
	in := rt.cov.LinBuf(c, &rt.buf)
	rt.sp.touch(len(in))
	for _, en := range in {
		if rt.fx.Has(int(en.Center)) {
			return true
		}
	}
	return rt.fset.Has(int(c)) && rt.e.ix.OnCycle(c)
}

// walkArcs decides c by walking back from its tree path over the
// collection's link arcs, breadth first, and reports whether it found
// an element of F (found) and whether the walk ended before the budget
// ran out (decided). The nodes that reach c over a path of length ≥ 1
// are c's proper tree ancestors — the tree test already ruled them out
// — and, for every link s → t into c's tree path, s and everything
// that reaches s: s's tree path and, in turn, the sources of the links
// into it. So c is reached iff some walked source is in F or has a
// proper tree ancestor in F, and a walk that runs out of sources is an
// exact non-match. A frontier element on a cycle is among its own
// walk's nodes, so the self-match needs no cycle test here. Links of a
// tombstoned document have no arcs, so the walk never enters one.
//
// Each source is tested when the walk first reaches it, and charged
// to the budget unless it is the one that finds F: a walk that ends
// at its first source costs about what the label test of c would have.
// A source that a finished walk leaves in seen is never tested again.
func (rt *reachTest) walkArcs(c int32) (found, decided bool) {
	w := &rt.walk
	w.queue = w.queue[:0]
	for i, v := 0, c; ; i++ {
		for s := range rt.e.coll.LinksIntoPath(v) {
			if w.seen == nil {
				w.seen = rt.e.scratch.Get(max(rt.n, rt.e.coll.NumAllocatedIDs()))
			}
			if w.seen.Has(int(s)) {
				continue
			}
			if rt.sp != nil {
				rt.sp.Walked++
			}
			if rt.fset.Has(int(s)) || rt.e.treeReached(s, rt.fset, &w.span) {
				rt.forget()
				return true, true
			}
			if w.budget == 0 {
				rt.forget()
				return false, false
			}
			w.budget--
			w.seen.Set(int(s))
			w.queue = append(w.queue, s)
		}
		if i == len(w.queue) {
			// every source walked stays in seen: none is reached from F
			return false, true
		}
		v = w.queue[i]
	}
}

// forget clears the sources of a walk that stopped early from seen:
// whether F reaches them was not settled.
func (rt *reachTest) forget() {
	for _, s := range rt.walk.queue {
		rt.walk.seen.Clear(int(s))
	}
}

// markX marks X = centers(Lout(F)) and F ∪ X, once, for the first
// candidate the walk does not decide.
func (rt *reachTest) markX() {
	rt.xset, rt.fx = rt.e.scratch.Get(rt.n), rt.e.scratch.Get(rt.n)
	rt.sp.touch(rt.cov.MarkOutCenters(rt.frontier, rt.xset, &rt.buf))
	rt.fx.Or(rt.fset)
	rt.fx.Or(rt.xset)
	if rt.sp != nil {
		rt.sp.Centers = rt.xset.Count()
	}
}

// release returns the test's scratch bitsets to the pool. Idempotent.
func (rt *reachTest) release() {
	for _, b := range []*graph.Bitset{&rt.fset, &rt.xset, &rt.fx, &rt.walk.seen} {
		if *b != nil {
			rt.e.scratch.Put(*b)
			*b = nil
		}
	}
}
