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
// its own descendant. Both // kernels, unranked and ranked, share this
// proper-path semantics, and Reference is its brute-force ground
// truth; ranked self-matches score by the shortest cycle length.
//
// # Candidate-side evaluation
//
// A // step is the §5.1 label join driven from the side that can be
// pruned, the tag's candidates (the staircase-join idea): mark the
// frontier F in a bitset, then walk the candidates in ascending ID order.
// The tree answers first: tree edges are graph edges, so c matches when
// a proper tree ancestor of c is in F, with no label read (the
// containment test of region encoding). Only the first candidate the
// tree does not answer marks X = centers(Lout(F)) and F ∪ X, reading
// each Lout list the frontier shares once; from then on c is also kept
// when c ∈ X (the direct c ∈ Lout(f) case), c ∈ F lies on a cycle (the
// self-match), or Lin(c) meets F ∪ X (f ∈ Lin(c) and the Lout ∩ Lin
// join). Cost is at most the frontier's distinct Lout mass plus the
// candidates' Lin mass instead of |F|×|C| probes, and matches come out
// sorted, so a limited cursor stops reading labels at its k-th match.
package query

import (
	"context"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"hopi/internal/core"
	"hopi/internal/graph"
	"hopi/internal/twohop"
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

// Engine evaluates queries against a collection and its index. An
// engine is immutable after construction (Refresh excepted) and safe
// for concurrent readers.
type Engine struct {
	coll *xmlmodel.Collection
	ix   *core.Index
	tags map[string][]int32
	// tagBits caches each tag's candidate set ("*" included) as a
	// bitset over global IDs, for DiffEval's membership tests.
	// Materialized lazily on first use per tag (many tags are never
	// watched; eager materialization would cost O(#tags × n) per
	// snapshot publication) and safe for concurrent readers.
	tagBits sync.Map // tag → graph.Bitset
	all     []int32  // sorted IDs of all live elements, the "*" candidates
	n       int      // allocated global-ID space at Refresh time

	// scratch pools evaluation bitsets so steady-state queries allocate
	// nothing while staying safe for concurrent readers.
	scratch *graph.BitsetPool

	// arenas pools the ranked // kernel's per-step columns.
	arenas sync.Pool // *kernelArena
}

// NewEngine builds a query engine; the tag index and the "*"
// candidate list are materialized once, per-tag candidate bitsets
// lazily on first use.
func NewEngine(coll *xmlmodel.Collection, ix *core.Index) *Engine {
	e := &Engine{coll: coll, ix: ix}
	e.Refresh()
	return e
}

// Derive returns the engine for coll and ix, a later state of e's
// collection. Maintenance only appends documents (global IDs only
// grow) and tombstones them (never revived), so the documents appended
// or tombstoned since e determine the new tag index exactly: tag lists
// and cached tag bitsets no such document touches are shared with e,
// the others are patched. The cost follows the change, not the
// collection. e stays valid for its own readers.
func (e *Engine) Derive(coll *xmlmodel.Collection, ix *core.Index) *Engine {
	d := &Engine{
		coll: coll, ix: ix,
		tags: e.tags, all: e.all,
		n: coll.NumAllocatedIDs(), scratch: e.scratch,
	}
	if d.n != e.n {
		// evaluation combines scratch bitsets word by word, so one
		// engine's pool must hand out one size
		d.scratch = graph.NewBitsetPool(d.n)
	}
	prev := e.coll
	var gone graph.Bitset // IDs of documents tombstoned since e
	added := map[string][]int32{}
	var addedAll []int32
	for i := range prev.Docs {
		if prev.Alive(i) && !coll.Alive(i) {
			gone = gone.Grow(d.n)
			for _, id := range coll.DocIDs(i) {
				gone.Set(int(id))
			}
			for _, el := range coll.Docs[i].Elements {
				if _, ok := added[el.Tag]; !ok {
					added[el.Tag] = nil // touched: IDs leave the list
				}
			}
		}
	}
	for i := len(prev.Docs); i < len(coll.Docs); i++ {
		if !coll.Alive(i) {
			continue
		}
		// appended documents hold the largest IDs, in document order
		for local, el := range coll.Docs[i].Elements {
			id := coll.GlobalID(i, int32(local))
			added[el.Tag] = append(added[el.Tag], id)
			addedAll = append(addedAll, id)
		}
	}
	e.tagBits.Range(func(tag, bits any) bool {
		// "*" holds every tag's IDs: any change touches it
		if _, touched := added[tag.(string)]; !touched && (tag != "*" || len(added) == 0) {
			d.tagBits.Store(tag, bits)
		}
		return true
	})
	if len(added) == 0 {
		return d
	}
	d.tags = maps.Clone(e.tags)
	for tag, ids := range added {
		if list := patchIDs(e.tags[tag], gone, ids); len(list) > 0 {
			d.tags[tag] = list
		} else {
			delete(d.tags, tag)
		}
	}
	d.all = patchIDs(e.all, gone, addedAll)
	return d
}

// patchIDs returns the sorted list with the IDs in gone removed and
// add (all larger than any in list) appended, in a fresh slice.
func patchIDs(list []int32, gone graph.Bitset, add []int32) []int32 {
	out := make([]int32, 0, len(list)+len(add))
	for _, id := range list {
		if !gone.Has(int(id)) {
			out = append(out, id)
		}
	}
	return append(out, add...)
}

// Refresh rebuilds the tag index after collection maintenance. It
// mutates the engine: never call it on an engine shared with
// concurrent readers (snapshots Derive a new engine instead).
func (e *Engine) Refresh() {
	e.tags = e.coll.ElementsByTag()
	e.n = e.coll.NumAllocatedIDs()
	e.tagBits = sync.Map{}
	var all []int32
	for _, ids := range e.tags {
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
	cands := e.candidates(tag)
	if len(cands) == 0 {
		// not cached: a client can name any number of unknown tags
		return graph.NewBitset(e.n)
	}
	if b, ok := e.tagBits.Load(tag); ok {
		return b.(graph.Bitset)
	}
	b := graph.NewBitset(e.n)
	for _, id := range cands {
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

// EvalCtx is Eval with cooperative cancellation: the step loops poll
// ctx and abandon the evaluation once it is done, returning ctx's
// error.
func (e *Engine) EvalCtx(ctx context.Context, q *Query) ([]int32, error) {
	cc := &canceller{ctx: ctx}
	sc, err := e.finalScan(ctx, q, cc, nil)
	if sc == nil {
		return nil, err
	}
	return sc.drain(cc)
}

// finalScan evaluates every step of q but the last into a frontier and
// returns the scan of the last step over it, or nil when a step empties
// the frontier first.
func (e *Engine) finalScan(ctx context.Context, q *Query, cc *canceller, plan *Plan) (*stepScan, error) {
	last := len(q.Steps) - 1
	if last == 0 {
		return e.newScan(nil, q.Steps[0], true, plan.step(0)), nil
	}
	frontier := e.initialFrontier(q.Steps[0], plan.step(0))
	for si := 1; ; si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(frontier) == 0 {
			plan.skipFrom(si)
			return nil, nil
		}
		if si == last {
			return e.newScan(frontier, q.Steps[si], false, plan.step(si)), nil
		}
		var err error
		if frontier, err = e.advance(frontier, q.Steps[si], cc, plan.step(si)); err != nil {
			return nil, err
		}
	}
}

// initialFrontier evaluates the first step: the tag's candidates,
// document roots only under a leading "/". An unanchored seed is the
// candidate list itself, shared with the engine's tag index: no reader
// of a frontier writes to it — newScan and advance only mark and probe
// it, rankedMatches only indexes and orders its seed columns
// (rankedCols.add appends to later steps' columns only), and
// SeedFrontier's callers copy it into their replies.
func (e *Engine) initialFrontier(first Step, sp *StepPlan) []int32 {
	if first.Axis != AxisChild {
		cands := e.candidates(first.Tag)
		sp.record(ModeSeed, len(cands), 0, len(cands))
		return cands
	}
	out, _ := e.newScan(nil, first, true, sp).drain(&canceller{})
	return out
}

// advance evaluates one later step into the next frontier.
func (e *Engine) advance(frontier []int32, step Step, cc *canceller, sp *StepPlan) ([]int32, error) {
	return e.newScan(frontier, step, false, sp).drain(cc)
}

// stepScan evaluates one step by walking the tag's candidates in
// ascending ID order and testing each against the frontier, so that
// the step can stream: a scan stopped after k matches has read only the
// labels of the candidates up to the k-th. A materialized step is the
// scan drained into a slice.
type stepScan struct {
	e     *Engine
	cands []int32
	idx   int

	// exactly one of seed/child holds, or neither for a // step
	seed  bool // the query's first step: no frontier
	root  bool // a seed under a leading "/": document roots only
	child bool // a "/" step: the parent is in the frontier

	frontier []int32      // F, kept to mark X when a candidate first needs it
	n        int          // the scratch bitsets' capacity
	fset     graph.Bitset // F
	xset     graph.Bitset // X, the frontier's Lout centers; nil until marked
	fx       graph.Bitset // F ∪ X, what a candidate's Lin must meet
	pooled   []graph.Bitset
	cyclic   graph.Bitset
	cov      *twohop.Cover
	buf      []twohop.Entry // LoutBuf's and LinBuf's merge buffer
	span     docSpan        // the last candidate's document
	sp       *StepPlan
}

// newScan starts the scan of step over frontier; seed marks the query's
// first step, which has none.
func (e *Engine) newScan(frontier []int32, step Step, seed bool, sp *StepPlan) *stepScan {
	sc := &stepScan{e: e, cands: e.candidates(step.Tag), sp: sp}
	mode := ModeDescendant
	switch {
	case seed:
		sc.seed, sc.root = true, step.Axis == AxisChild
		mode = ModeSeed
	default:
		sc.child = step.Axis == AxisChild
		if sc.child {
			mode = ModeChild
		} else {
			sc.frontier, sc.cov, sc.cyclic = frontier, e.ix.Cover(), e.ix.CyclicSet()
		}
		sc.n = e.scratchSize()
		sc.fset = e.scratch.Get(sc.n)
		sc.pooled = []graph.Bitset{sc.fset}
		for _, f := range frontier {
			sc.fset.Set(int(f))
		}
	}
	sp.record(mode, len(sc.cands), len(frontier), 0)
	return sc
}

// markX marks X = centers(Lout(F)) and F ∪ X, once, for the first
// candidate the tree test does not answer.
func (sc *stepScan) markX() {
	sc.xset, sc.fx = sc.e.scratch.Get(sc.n), sc.e.scratch.Get(sc.n)
	sc.pooled = append(sc.pooled, sc.xset, sc.fx)
	sc.sp.touch(sc.cov.MarkOutCenters(sc.frontier, sc.xset, &sc.buf))
	sc.fx.Or(sc.fset)
	sc.fx.Or(sc.xset)
	if sc.sp != nil {
		sc.sp.Centers = sc.xset.Count()
	}
}

// skipPast resumes the scan strictly after element after.
func (sc *stepScan) skipPast(after int32) {
	i, found := slices.BinarySearch(sc.cands, after)
	if found {
		i++
	}
	sc.idx = i
}

// next returns the next matching candidate; the scan releases its
// scratch once exhausted.
func (sc *stepScan) next(cc *canceller) (int32, bool, error) {
	for sc.idx < len(sc.cands) {
		if err := cc.check(); err != nil {
			return 0, false, err
		}
		c := sc.cands[sc.idx]
		sc.idx++
		if sc.matches(c) {
			if sc.sp != nil {
				sc.sp.FrontierOut++
			}
			return c, true, nil
		}
	}
	sc.release()
	return 0, false, nil
}

// matches is the per-candidate test. For a // step, c matches when a
// proper tree ancestor of c is in F (a tree path), and otherwise iff it
// is a frontier Lout center (c ∈ Lout(f)), a cyclic frontier element
// (the self-match), or one of its Lin centers lies in F ∪ X
// (f ∈ Lin(c), or the Lout ∩ Lin join): by the cover property, exactly
// when some f ∈ F reaches c over a path of length ≥ 1.
func (sc *stepScan) matches(c int32) bool {
	switch {
	case sc.seed:
		return !sc.root || sc.e.isRoot(c)
	case sc.child:
		p := sc.e.parentOf(c)
		return p >= 0 && sc.fset.Has(int(p))
	case sc.e.treeReached(c, sc.fset, &sc.span):
		if sc.sp != nil {
			sc.sp.TreeMatches++
		}
		return true
	}
	if sc.xset == nil {
		sc.markX()
	}
	if sc.xset.Has(int(c)) || sc.fset.Has(int(c)) && sc.cyclic.Has(int(c)) {
		return true
	}
	in := sc.cov.LinBuf(c, &sc.buf)
	sc.sp.touch(len(in))
	for _, en := range in {
		if sc.fx.Has(int(en.Center)) {
			return true
		}
	}
	return false
}

// docSpan remembers the document the last resolved ID fell in, as its
// [base, end) ID range. A scan's candidates ascend, so they stay inside
// it for a whole document: the search over all document bases runs once
// per document, not once per candidate. The zero span holds no ID.
type docSpan struct {
	doc       int
	base, end int32
}

// ancestors yields c's proper tree ancestors as global IDs, nearest
// first: c's document is resolved through span, then Parent is
// followed inside it. Nothing else about the order is assumed —
// AddElement can attach a child to an earlier element, so a parent's
// ID may exceed its child's. An ID outside the collection or in a
// tombstoned document yields none: the index's graph holds no tree
// edge of it.
func (e *Engine) ancestors(c int32, span *docSpan) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		if c < 0 || int(c) >= e.coll.NumAllocatedIDs() {
			return
		}
		if c < span.base || c >= span.end {
			doc := e.coll.DocOfID(c)
			base := e.coll.GlobalID(doc, 0)
			*span = docSpan{doc: doc, base: base, end: base + int32(len(e.coll.Docs[doc].Elements))}
		}
		if !e.coll.Alive(span.doc) {
			return
		}
		els := e.coll.Docs[span.doc].Elements
		for p := els[c-span.base].Parent; p >= 0; p = els[p].Parent {
			if !yield(span.base + p) {
				return
			}
		}
	}
}

// treeReached reports whether a proper tree ancestor of c is in set.
// Tree edges are graph edges, so an ancestor in the frontier reaches c
// over a path of length ≥ 1 with no label read.
func (e *Engine) treeReached(c int32, set graph.Bitset, span *docSpan) bool {
	for a := range e.ancestors(c, span) {
		if set.Has(int(a)) {
			return true
		}
	}
	return false
}

// drain runs the scan to its end and returns the matches in ascending
// order.
func (sc *stepScan) drain(cc *canceller) ([]int32, error) {
	defer sc.release()
	var out []int32
	for {
		c, ok, err := sc.next(cc)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, c)
	}
}

// release returns the scan's scratch bitsets to the pool. Idempotent.
func (sc *stepScan) release() {
	for _, b := range sc.pooled {
		sc.e.scratch.Put(b)
	}
	sc.pooled = nil
}
