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
	"maps"
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

	// arenas pools the ranked // kernel's per-step columns.
	arenas sync.Pool // *kernelArena

	// mode selects the descendant-step evaluator; EvalAuto picks per
	// step size.
	mode EvalMode
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

// Derive returns the engine for coll and ix, a later state of e's
// collection. Maintenance only appends documents (global IDs only
// grow) and tombstones them (never revived), so the documents appended
// or tombstoned since e determine the new tag index exactly: tag lists
// and cached tag bitsets no such document touches are shared with e,
// the others are patched. The cost follows the change, not the
// collection. e stays valid for its own readers.
func (e *Engine) Derive(coll *xmlmodel.Collection, ix *core.Index) *Engine {
	d := &Engine{
		coll: coll, ix: ix, mode: e.mode,
		tags: e.tags, all: e.all, allBits: e.allBits,
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
		if _, touched := added[tag.(string)]; !touched {
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
	d.allBits = e.allBits.Clone().Grow(d.n)
	d.allBits.AndNot(gone)
	for _, id := range addedAll {
		d.allBits.Set(int(id))
	}
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

// SetEvalMode pins the descendant-step evaluator. Its only callers are
// the equivalence tests and Go benchmarks of this package, which run
// the semijoin and the reference evaluator (EvalPairwise) on identical
// state. Set it before sharing the engine with concurrent readers.
func (e *Engine) SetEvalMode(m EvalMode) { e.mode = m }

// Refresh rebuilds the tag index after collection maintenance. It
// mutates the engine: never call it on an engine shared with
// concurrent readers (snapshots Derive a new engine instead).
func (e *Engine) Refresh() {
	e.tags = e.coll.ElementsByTag()
	e.n = e.coll.NumAllocatedIDs()
	e.tagBits = sync.Map{}
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
	if len(e.tags[tag]) == 0 {
		// not cached: a client can name any number of unknown tags
		return graph.NewBitset(e.n)
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
