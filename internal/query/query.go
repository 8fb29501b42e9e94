// Package query evaluates XPath-style path expressions with wildcards
// over a HOPI index. This is the workload HOPI exists for (§1): //
// steps are answered with connection-index reachability over the
// ancestor, descendant, *and link* axes, and the distance-aware index
// supports XXL-style ranking where matches connected by shorter paths
// score higher (§5.1, e.g. //book//author).
//
// # Descendant-axis semantics
//
// A step "//t" matches every element v with tag t such that some
// frontier element u has a path of length ≥ 1 to v — following tree
// edges and links, crossing documents. In particular an element
// matches *itself* only through a genuine cycle (links can close
// cycles that trees never have): on a link-free collection //a//a is
// empty, exactly as in XPath, while in a citation cycle an article is
// its own descendant. All evaluators — the set-at-a-time semijoin, the
// pairwise fallback, and the ranked path — share this proper-path
// semantics (core.Index.ReachesProper); ranked self-matches score by
// the shortest cycle length.
//
// # Set-at-a-time evaluation
//
// A // step is evaluated as the §5.1 semijoin rather than per
// (frontier, candidate) pair: union the Lout centers of the frontier,
// expand frontier elements and centers through the center→owners
// posting index (every v with a hit in Lin), add the centers
// themselves (the direct v ∈ Lout(u) case), and intersect with the
// tag's candidate bitset. Cost is proportional to the frontier's label
// mass plus the touched posting lists instead of |F|×|C| probes.
package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hopi/internal/core"
	"hopi/internal/graph"
	"hopi/internal/xmlmodel"
)

// Axis is the relationship between consecutive steps.
type Axis int

const (
	// AxisChild is the parent-child tree axis (XPath "/").
	AxisChild Axis = iota
	// AxisDescendant is the transitive connection axis (XPath "//"),
	// which in HOPI includes intra- and inter-document links.
	AxisDescendant
)

// Step is one location step: an axis plus a tag test ("*" matches any
// element).
type Step struct {
	Axis Axis
	Tag  string
}

// Query is a parsed path expression.
type Query struct {
	Steps []Step
	text  string
}

// String returns the original expression, or the canonical form for
// queries constructed without one.
func (q *Query) String() string {
	if q.text == "" {
		return q.Canonical()
	}
	return q.text
}

// Canonical renders the parsed steps back into an expression. Parsing
// the canonical form yields a query with equal steps — the round-trip
// property the parser fuzzer asserts.
func (q *Query) Canonical() string {
	var b strings.Builder
	for _, s := range q.Steps {
		if s.Axis == AxisDescendant {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(s.Tag)
	}
	return b.String()
}

// Equal reports whether two queries have identical steps (the
// expression text is presentation only).
func (q *Query) Equal(o *Query) bool {
	if len(q.Steps) != len(o.Steps) {
		return false
	}
	for i, s := range q.Steps {
		if o.Steps[i] != s {
			return false
		}
	}
	return true
}

// Parse parses expressions of the form
//
//	//a//b/c    /bib/book//author    //*//author
//
// A leading "/" anchors the first step at document roots; a leading
// "//" matches the first tag anywhere.
func Parse(expr string) (*Query, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return nil, fmt.Errorf("query: empty expression")
	}
	if !strings.HasPrefix(s, "/") {
		return nil, fmt.Errorf("query: expression must start with / or //")
	}
	q := &Query{text: expr}
	i := 0
	for i < len(s) {
		var axis Axis
		if strings.HasPrefix(s[i:], "//") {
			axis = AxisDescendant
			i += 2
		} else if s[i] == '/' {
			axis = AxisChild
			i++
		} else {
			return nil, fmt.Errorf("query: expected / at position %d of %q", i, expr)
		}
		j := i
		for j < len(s) && s[j] != '/' {
			j++
		}
		tag := s[i:j]
		if tag == "" {
			return nil, fmt.Errorf("query: empty step at position %d of %q", i, expr)
		}
		for _, r := range tag {
			if !isNameRune(r) && tag != "*" {
				return nil, fmt.Errorf("query: invalid tag %q in %q", tag, expr)
			}
		}
		q.Steps = append(q.Steps, Step{Axis: axis, Tag: tag})
		i = j
	}
	return q, nil
}

func isNameRune(r rune) bool {
	return r == '_' || r == '-' || r == '.' ||
		(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

// Match is one ranked query result.
type Match struct {
	// Element is the global ID of the element matching the last step.
	Element int32
	// Score is the XXL-style connection score Π 1/(1+dist) over the
	// steps; 1.0 means every step was a direct parent-child hop.
	Score float64
	// Path holds one witness element per step.
	Path []int32
}

// pairwiseCutoff bounds the frontier×candidate work below which the
// tuple-at-a-time evaluator beats the semijoin's bitset setup: for a
// handful of probes, two binary searches per pair are cheaper than
// clearing O(n/64) words of scratch bitsets.
const pairwiseCutoff = 128

// Engine evaluates queries against a collection and its index. An
// engine is immutable after construction (Refresh excepted) and safe
// for concurrent readers.
type Engine struct {
	coll *xmlmodel.Collection
	ix   *core.Index
	tags map[string][]int32
	// tagBits caches each tag's candidate set as a bitset over global
	// IDs — the right-hand side of the semijoin intersection.
	// Materialized lazily on first use per tag (many tags are never
	// queried; eager materialization would cost O(#tags × n) per
	// snapshot publication) and safe for concurrent readers.
	tagBits sync.Map // tag → graph.Bitset
	all     []int32  // sorted IDs of all live elements, the "*" candidates
	allBits graph.Bitset
	n       int // allocated global-ID space at Refresh time

	// scratch pools evaluation bitsets so steady-state queries allocate
	// nothing while staying safe for concurrent readers.
	scratch *graph.BitsetPool

	// eg lazily caches the element digraph for the uniform-score ranked
	// top-k (k-bounded multi-source BFS); most snapshots never pay for
	// it. Guarded by egMu for concurrent readers.
	egMu sync.Mutex
	eg   *graph.Digraph

	// mode selects the descendant-step evaluator; EvalAuto picks per
	// step size.
	mode EvalMode
}

// elementGraph returns the collection's element digraph, built on
// first use and cached for the engine's lifetime (engines are immutable
// after construction; Refresh drops the cache).
func (e *Engine) elementGraph() *graph.Digraph {
	e.egMu.Lock()
	defer e.egMu.Unlock()
	if e.eg == nil {
		e.eg = e.coll.ElementGraph()
	}
	return e.eg
}

// EvalMode selects how // steps are evaluated.
type EvalMode int

const (
	// EvalAuto (the default) uses the set-at-a-time semijoin and falls
	// back to pairwise probing when frontier×candidates is tiny.
	EvalAuto EvalMode = iota
	// EvalPairwise forces the tuple-at-a-time evaluator everywhere:
	// the reference the equivalence tests and the Go benchmarks of
	// this package compare the semijoin against.
	EvalPairwise
	// EvalSemijoin forces the semijoin even below the fallback cutoff.
	EvalSemijoin
)

// NewEngine builds a query engine; the tag index and the "*"
// candidate list are materialized once, per-tag candidate bitsets
// lazily on first use.
func NewEngine(coll *xmlmodel.Collection, ix *core.Index) *Engine {
	e := &Engine{coll: coll, ix: ix}
	e.Refresh()
	return e
}

// SetEvalMode pins the descendant-step evaluator. Its only callers are
// the equivalence tests and Go benchmarks of this package, which run
// the semijoin and the reference evaluator (EvalPairwise) on identical
// state. Set it before sharing the engine with concurrent readers.
func (e *Engine) SetEvalMode(m EvalMode) { e.mode = m }

// Refresh rebuilds the tag index after collection maintenance. It
// mutates the engine: never call it on an engine shared with
// concurrent readers (snapshots build a fresh engine instead).
func (e *Engine) Refresh() {
	e.tags = e.coll.ElementsByTag()
	e.n = e.coll.NumAllocatedIDs()
	e.tagBits = sync.Map{}
	e.egMu.Lock()
	e.eg = nil
	e.egMu.Unlock()
	e.allBits = graph.NewBitset(e.n)
	var all []int32
	for _, ids := range e.tags {
		for _, id := range ids {
			e.allBits.Set(int(id))
		}
		all = append(all, ids...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	e.all = all
	e.scratch = graph.NewBitsetPool(e.n)
}

func (e *Engine) candidates(tag string) []int32 {
	if tag == "*" {
		return e.all
	}
	return e.tags[tag]
}

func (e *Engine) candidateBits(tag string) graph.Bitset {
	if tag == "*" {
		return e.allBits
	}
	if b, ok := e.tagBits.Load(tag); ok {
		return b.(graph.Bitset)
	}
	b := graph.NewBitset(e.n)
	for _, id := range e.tags[tag] {
		b.Set(int(id))
	}
	// concurrent first users may race to build; both results are
	// identical, the first stored copy wins
	actual, _ := e.tagBits.LoadOrStore(tag, b)
	return actual.(graph.Bitset)
}

// scratchSize returns the bitset capacity evaluation needs: the
// engine's ID space or the cover's, whichever is larger (a stale
// engine — maintenance since the last Refresh — can encounter cover
// IDs beyond its own ID space).
func (e *Engine) scratchSize() int {
	if cn := e.ix.Cover().N(); cn > e.n {
		return cn
	}
	return e.n
}

// isRoot reports whether the element is a document root.
func (e *Engine) isRoot(id int32) bool {
	_, local := e.coll.LocalID(id)
	return local == 0
}

// parentOf returns the global tree parent, or -1 for roots.
func (e *Engine) parentOf(id int32) int32 {
	doc, local := e.coll.LocalID(id)
	p := e.coll.Docs[doc].Elements[local].Parent
	if p < 0 {
		return -1
	}
	return e.coll.GlobalID(doc, p)
}

// canceller polls a context's error only every few hundred iterations
// so cancellation checks stay off the hot path's critical loops.
type canceller struct {
	ctx context.Context
	n   uint
}

func (c *canceller) check() error {
	if c.ctx == nil {
		return nil
	}
	if c.n++; c.n&255 != 0 {
		return nil
	}
	return c.ctx.Err()
}

// Eval returns the sorted global IDs of elements matching the last
// step of the query.
func (e *Engine) Eval(q *Query) []int32 {
	out, _ := e.EvalCtx(context.Background(), q)
	return out
}

// EvalCtx is Eval with cooperative cancellation: the frontier loops
// poll ctx and abandon the evaluation once it is done, returning
// ctx's error.
func (e *Engine) EvalCtx(ctx context.Context, q *Query) ([]int32, error) {
	return e.evalCtx(ctx, q, nil)
}

func (e *Engine) evalCtx(ctx context.Context, q *Query, plan *Plan) ([]int32, error) {
	cc := &canceller{ctx: ctx}
	frontier := e.initialFrontier(q, plan.step(0))
	for si := 1; si < len(q.Steps); si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(frontier) == 0 {
			plan.skipFrom(si)
			return nil, nil
		}
		var err error
		frontier, err = e.advance(frontier, q.Steps[si], cc, plan.step(si))
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	return frontier, nil
}

func (e *Engine) initialFrontier(q *Query, sp *StepPlan) []int32 {
	first := q.Steps[0]
	cands := e.candidates(first.Tag)
	var out []int32
	for _, id := range cands {
		if first.Axis == AxisChild && !e.isRoot(id) {
			continue
		}
		out = append(out, id)
	}
	sp.record(ModeSeed, len(cands), 0, len(out))
	return out
}

func (e *Engine) advance(frontier []int32, step Step, cc *canceller, sp *StepPlan) ([]int32, error) {
	cands := e.candidates(step.Tag)
	if step.Axis == AxisChild {
		inFrontier := e.scratch.Get(e.scratchSize())
		defer e.scratch.Put(inFrontier)
		for _, f := range frontier {
			inFrontier.Set(int(f))
		}
		var out []int32
		for _, c := range cands {
			if err := cc.check(); err != nil {
				return nil, err
			}
			if p := e.parentOf(c); p >= 0 && inFrontier.Has(int(p)) {
				out = append(out, c)
			}
		}
		sp.record(ModeChild, len(cands), len(frontier), len(out))
		return out, nil
	}
	if e.mode == EvalPairwise || (e.mode == EvalAuto && len(frontier)*len(cands) <= pairwiseCutoff) {
		return e.advancePairwise(frontier, cands, cc, sp)
	}
	return e.advanceSemijoin(frontier, e.candidateBits(step.Tag), len(cands), cc, sp)
}

// advanceSemijoin evaluates one // step set-at-a-time over the
// center-indexed postings:
//
//	X   := ∪_{f ∈ F} centers(Lout(f))            — frontier's out centers
//	acc := {f ∈ F : f on a cycle}                — cyclic self-matches
//	     ∪ X                                     — direct c ∈ Lout(f)
//	     ∪ ∪_{y ∈ F ∪ X} InOwners(y)             — direct f ∈ Lin(c) and the
//	                                               Lout∩Lin semijoin
//	result := acc ∩ candidates(tag)
//
// which enumerates exactly {c : ∃f ∈ F, f →⁺ c} by the cover property.
func (e *Engine) advanceSemijoin(frontier []int32, tagSet graph.Bitset, ncands int, cc *canceller, sp *StepPlan) ([]int32, error) {
	post := e.ix.Postings().Postings()
	cov := e.ix.Cover()
	cyclic := e.ix.CyclicSet()
	acc := e.scratch.Get(e.scratchSize())
	defer e.scratch.Put(acc)
	centers := e.scratch.Get(e.scratchSize())
	defer e.scratch.Put(centers)

	touched := 0
	for _, f := range frontier {
		if err := cc.check(); err != nil {
			return nil, err
		}
		if cyclic.Has(int(f)) {
			acc.Set(int(f))
		}
		lout := cov.Lout(f)
		for _, en := range lout {
			centers.Set(int(en.Center))
		}
		touched += len(lout) + len(post.InOwners(f))
		for _, c := range post.InOwners(f) {
			acc.Set(int(c))
		}
	}
	var err error
	centers.ForEach(func(x int) bool {
		if cerr := cc.check(); cerr != nil {
			err = cerr
			return false
		}
		touched += len(post.InOwners(int32(x)))
		for _, c := range post.InOwners(int32(x)) {
			acc.Set(int(c))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.Centers = centers.Count()
	}
	acc.Or(centers)
	acc.And(tagSet)
	out := acc.Elements(nil)
	sp.record(ModeSemijoin, ncands, len(frontier), len(out))
	sp.touch(touched)
	return out, nil
}

// advancePairwise is the tuple-at-a-time fallback: probe each
// (frontier, candidate) pair against the index. Wins only when the
// product is tiny; also serves as the reference implementation for the
// equivalence tests.
func (e *Engine) advancePairwise(frontier, cands []int32, cc *canceller, sp *StepPlan) ([]int32, error) {
	var out []int32
	probes := 0
	for _, c := range cands {
		for _, f := range frontier {
			if err := cc.check(); err != nil {
				return nil, err
			}
			probes++
			if e.ix.ReachesProper(f, c) {
				out = append(out, c)
				break
			}
		}
	}
	sp.record(ModePairwise, len(cands), len(frontier), len(out))
	sp.touch(probes)
	return out, nil
}

// EvalRanked evaluates the query and ranks matches by connection
// length: each step contributes 1/(1+dist). The index must carry
// distance information. Results are sorted by descending score, ties
// by element ID.
func (e *Engine) EvalRanked(q *Query) ([]Match, error) {
	return e.EvalRankedCtx(context.Background(), q)
}

// state carries a frontier element's accumulated score and witness
// path during ranked evaluation.
type state struct {
	score float64
	path  []int32
}

// EvalRankedCtx is EvalRanked with cooperative cancellation, mirroring
// EvalCtx.
func (e *Engine) EvalRankedCtx(ctx context.Context, q *Query) ([]Match, error) {
	frontier, err := e.rankedFrontier(ctx, q, len(q.Steps), nil)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, len(frontier))
	for id, st := range frontier {
		out = append(out, Match{Element: id, Score: st.score, Path: st.path})
	}
	sortMatches(out)
	return out, nil
}

// rankedFrontier evaluates the first `upto` steps of a ranked query
// and returns the resulting frontier states. The cursor path uses
// upto = len(Steps)-1 to stop before the final step, which it then
// evaluates with top-k pushdown.
func (e *Engine) rankedFrontier(ctx context.Context, q *Query, upto int, plan *Plan) (map[int32]state, error) {
	cc := &canceller{ctx: ctx}
	frontier := map[int32]state{}
	for _, id := range e.initialFrontier(q, plan.step(0)) {
		frontier[id] = state{score: 1, path: []int32{id}}
	}
	for si := 1; si < upto; si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(frontier) == 0 {
			plan.skipFrom(si)
			break
		}
		step := q.Steps[si]
		if err := e.checkRankedStep(q, step); err != nil {
			return nil, err
		}
		var (
			next map[int32]state
			err  error
		)
		if step.Axis == AxisChild {
			next, err = e.advanceRankedChild(frontier, step, cc, plan.step(si))
		} else if e.mode == EvalPairwise ||
			(e.mode == EvalAuto && len(frontier)*len(e.candidates(step.Tag)) <= pairwiseCutoff) {
			next, err = e.advanceRankedPairwise(frontier, step, cc, plan.step(si))
		} else {
			next, err = e.advanceRankedSemijoin(frontier, step, cc, plan.step(si))
		}
		if err != nil {
			return nil, err
		}
		frontier = next
	}
	return frontier, nil
}

// checkRankedStep fails ranked descendant steps uniformly on
// non-distance indexes — independent of evaluator choice or collection
// size — instead of the semijoin reading meaningless Dist fields.
func (e *Engine) checkRankedStep(q *Query, step Step) error {
	if step.Axis == AxisDescendant && len(e.candidates(step.Tag)) > 0 && !e.ix.Cover().WithDist {
		return fmt.Errorf("query: ranked evaluation of %q: index built without distance information", q.String())
	}
	return nil
}

// sortMatches orders ranked matches by descending score, ties by
// ascending element ID — the canonical ranked result order.
func sortMatches(out []Match) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Element < out[j].Element
	})
}

func (e *Engine) advanceRankedChild(frontier map[int32]state, step Step, cc *canceller, sp *StepPlan) (map[int32]state, error) {
	next := map[int32]state{}
	for _, c := range e.candidates(step.Tag) {
		if err := cc.check(); err != nil {
			return nil, err
		}
		p := e.parentOf(c)
		if p < 0 {
			continue
		}
		st, ok := frontier[p]
		if !ok {
			continue
		}
		next[c] = state{
			score: st.score / 2, // parent-child hop: dist 1
			path:  appendPath(st.path, c),
		}
	}
	sp.record(ModeChild, len(e.candidates(step.Tag)), len(frontier), len(next))
	return next, nil
}

// advanceRankedPairwise mirrors the pairwise boolean evaluator with
// distances: per candidate, the best score over all frontier elements.
// Self-matches use the shortest cycle length.
func (e *Engine) advanceRankedPairwise(frontier map[int32]state, step Step, cc *canceller, sp *StepPlan) (map[int32]state, error) {
	next := map[int32]state{}
	probes := 0
	for _, c := range e.candidates(step.Tag) {
		best := state{score: -1}
		for f, st := range frontier {
			if err := cc.check(); err != nil {
				return nil, err
			}
			probes++
			var d uint32
			if c == f {
				d = e.ix.CycleDistance(f)
			} else {
				dist, err := e.ix.Distance(f, c)
				if err != nil {
					return nil, err
				}
				d = dist
			}
			if d == graph.InfDist || d == 0 {
				continue
			}
			if s := st.score / float64(1+d); s > best.score {
				best = state{score: s, path: appendPath(st.path, c)}
			}
		}
		if best.score > 0 {
			next[c] = best
		}
	}
	sp.record(ModeRankedPairwise, len(e.candidates(step.Tag)), len(frontier), len(next))
	sp.touch(probes)
	return next, nil
}

// arrival is one way the frontier can reach a center during ranked
// semijoin evaluation: some frontier element `from` with accumulated
// score reaches the center over `dist` hops.
type arrival struct {
	score float64
	dist  uint32
	from  int32
}

// centerArrivals aggregates, per center, how the frontier reaches it.
// implicit is the center's own frontier state (every frontier element
// is an implicit zero-distance Lout center of itself, §3.4); rest
// holds arrivals through stored Lout entries, pruned to the pareto
// frontier over (dist ↓, score ↑). The two are kept apart because the
// implicit arrival must not serve its own element as a candidate —
// that would claim a zero-length path.
type centerArrivals struct {
	implicit *arrival
	rest     []arrival
	// pruned marks rest as already pareto-pruned: the top-k path prunes
	// lazily, only for centers that exact scoring actually consults.
	pruned bool
}

// prunedRest returns the pareto-pruned arrival list, pruning on first
// use.
func (ca *centerArrivals) prunedRest() []arrival {
	if !ca.pruned {
		ca.rest = paretoPrune(ca.rest)
		ca.pruned = true
	}
	return ca.rest
}

// advanceRankedSemijoin replaces the O(|F|×|C|) Distance loop with a
// per-center aggregation: distribute every frontier element's score
// over its Lout centers once, prune each center's arrival list to its
// pareto frontier, then score only the candidates whose Lin touches an
// aggregated center (plus direct and cyclic-self cases) — the ranked
// analogue of the boolean semijoin, computing exactly
// max_f score_f / (1 + dist(f, c)) with dist the §5.1 minimum over
// label pairs.
func (e *Engine) advanceRankedSemijoin(frontier map[int32]state, step Step, cc *canceller, sp *StepPlan) (map[int32]state, error) {
	cov := e.ix.Cover()
	post := e.ix.Postings().Postings()
	cyclic := e.ix.CyclicSet()
	tagSet := e.candidateBits(step.Tag)

	// Phase 1: distribute the frontier over its centers.
	arrivals, err := e.distributeArrivals(frontier, cc)
	if err != nil {
		return nil, err
	}
	touched := 0
	for f := range frontier {
		touched += len(cov.Lout(f))
	}
	// Phase 2: gather candidates and prune arrival lists.
	cands := e.scratch.Get(e.scratchSize())
	defer e.scratch.Put(cands)
	for x, ca := range arrivals {
		if err := cc.check(); err != nil {
			return nil, err
		}
		if len(ca.prunedRest()) > 0 {
			cands.Set(int(x)) // direct: x ∈ Lout(f)
		}
		touched += len(post.InOwners(x))
		for _, c := range post.InOwners(x) {
			cands.Set(int(c))
		}
	}
	for f := range frontier {
		if cyclic.Has(int(f)) {
			cands.Set(int(f))
		}
	}
	cands.And(tagSet)

	// Phase 3: score each candidate over its Lin side.
	next := map[int32]state{}
	cands.ForEach(func(ci int) bool {
		if cerr := cc.check(); cerr != nil {
			err = cerr
			return false
		}
		c := int32(ci)
		touched += len(cov.Lin(c))
		best := e.scoreCandidate(c, arrivals, frontier)
		if best.score > 0 {
			st := frontier[best.from]
			next[c] = state{score: best.score, path: appendPath(st.path, c)}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.Centers = len(arrivals)
	}
	sp.record(ModeRankedSemijoin, len(e.candidates(step.Tag)), len(frontier), len(next))
	sp.touch(touched)
	return next, nil
}

// distributeArrivals runs phase 1 of the ranked semijoin: every
// frontier element is an implicit zero-distance arrival at itself and a
// stored arrival at each of its Lout centers.
func (e *Engine) distributeArrivals(frontier map[int32]state, cc *canceller) (map[int32]*centerArrivals, error) {
	cov := e.ix.Cover()
	arrivals := map[int32]*centerArrivals{}
	at := func(x int32) *centerArrivals {
		ca := arrivals[x]
		if ca == nil {
			ca = &centerArrivals{}
			arrivals[x] = ca
		}
		return ca
	}
	for f, st := range frontier {
		if err := cc.check(); err != nil {
			return nil, err
		}
		self := arrival{score: st.score, dist: 0, from: f}
		at(f).implicit = &self
		for _, en := range cov.Lout(f) {
			ca := at(en.Center)
			ca.rest = append(ca.rest, arrival{score: st.score, dist: en.Dist, from: f})
		}
	}
	return arrivals, nil
}

// scoreCandidate computes a candidate's exact best arrival over the
// full arrivals map — direct Lout hits, the Lin-side join, and the
// cyclic self-match. It considers every path regardless of which
// centers a caller has expanded, so partial (top-k) evaluation scores
// candidates exactly.
func (e *Engine) scoreCandidate(c int32, arrivals map[int32]*centerArrivals, frontier map[int32]state) arrival {
	best := arrival{score: -1}
	consider := func(a arrival, linDist uint32) {
		if s := a.score / float64(1+a.dist+linDist); s > best.score {
			best = arrival{score: s, dist: a.dist + linDist, from: a.from}
		}
	}
	// direct c ∈ Lout(f): arrivals at center c itself, Lin side
	// implicit (distance 0). Lout-derived arrivals at center c
	// always come from f ≠ c, so no self path sneaks in; the
	// implicit arrival IS c's own and is skipped.
	if ca := arrivals[c]; ca != nil {
		for _, a := range ca.prunedRest() {
			consider(a, 0)
		}
	}
	// f ∈ Lin(c) and Lout(f) ∩ Lin(c): every stored Lin entry of c
	// joins the arrivals at its center. en.Center ≠ c (self entries
	// are never stored), so the implicit arrival is usable here.
	for _, en := range e.ix.Cover().Lin(c) {
		ca := arrivals[en.Center]
		if ca == nil {
			continue
		}
		if ca.implicit != nil {
			consider(*ca.implicit, en.Dist)
		}
		for _, a := range ca.prunedRest() {
			consider(a, en.Dist)
		}
	}
	// cyclic self-match: c reaches itself over its shortest cycle.
	if st, ok := frontier[c]; ok {
		if d := e.ix.CycleDistance(c); d != graph.InfDist && d != 0 {
			if s := st.score / float64(1+d); s > best.score {
				best = arrival{score: s, from: c}
			}
		}
	}
	return best
}

// paretoPrune sorts arrivals by (dist asc, score desc) and keeps only
// entries whose score strictly exceeds every nearer arrival's: a
// dominated arrival (farther and no better) can never win
// max score/(1+dist+t) for any Lin-side distance t.
func paretoPrune(list []arrival) []arrival {
	if len(list) < 2 {
		return list
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].dist != list[j].dist {
			return list[i].dist < list[j].dist
		}
		return list[i].score > list[j].score
	})
	out := list[:1]
	bestScore := list[0].score
	for _, a := range list[1:] {
		if a.score > bestScore {
			out = append(out, a)
			bestScore = a.score
		}
	}
	return out
}

func appendPath(path []int32, c int32) []int32 {
	return append(append([]int32(nil), path...), c)
}
