package query

import (
	"context"
	"sort"
	"time"

	"hopi/internal/graph"
	"hopi/internal/twohop"
)

// StreamOpts configures one cursor execution.
type StreamOpts struct {
	// Limit stops the stream after this many results (<= 0: unlimited).
	// The final step's evaluation is restructured around it: the plain
	// path probes candidates in ascending element order and stops
	// scanning label entries once Limit results are emitted; the ranked
	// path scores the final step in full and selects the top Limit.
	Limit int
	// Ranked selects XXL-style connection ranking (requires a
	// distance-aware index). Results are ordered by (score desc,
	// element asc); unranked streams are ordered by ascending element.
	Ranked bool
	// HasAfter resumes the stream strictly after a previous position:
	// After is the last emitted element, AfterScore (ranked only) its
	// score. The position must come from the same engine state — resume
	// tokens are validated against the snapshot epoch by the caller.
	HasAfter   bool
	After      int32
	AfterScore float64
	// Plan, when non-nil, collects per-step EXPLAIN statistics during
	// evaluation. It must be created with the same step count as the
	// query (see Engine.Explain).
	Plan *Plan
}

// matchPos is a position in the ranked result order (score desc,
// element asc).
type matchPos struct {
	score float64
	elem  int32
}

// before reports whether a result at this position precedes the match
// (score, elem) in the ranked order.
func (p matchPos) before(score float64, elem int32) bool {
	if p.score != score {
		return p.score > score
	}
	return p.elem < elem
}

// Stream is an iterator over query results — the execute side of the
// compile/execute split. Prefix steps run set-at-a-time exactly as in
// Eval; the final step streams. Use:
//
//	st, err := e.Stream(ctx, q, StreamOpts{Limit: 10})
//	for st.Next() { use(st.Element()) }
//	err = st.Err()
//	st.Close()
//
// A Stream is single-goroutine; Close releases pooled scratch bitsets
// and is idempotent.
type Stream struct {
	e       *Engine
	cc      *canceller
	err     error
	closed  bool
	limit   int
	emitted int
	plan    *Plan

	cur Match

	// materialized results (ranked, forced-pairwise, or unlimited runs)
	ids    []int32
	ranked []Match
	pos    int
	isRank bool

	// lazy per-candidate scan (the plain limit-pushdown path)
	lazy *lazyScan
}

// Stream starts a cursor over the query. Prefix steps are evaluated
// eagerly (set-at-a-time, as in EvalCtx); an unranked final step is
// evaluated lazily, a ranked one in full before its page is selected.
func (e *Engine) Stream(ctx context.Context, q *Query, opts StreamOpts) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Stream{e: e, cc: &canceller{ctx: ctx}, limit: opts.Limit, plan: opts.Plan}
	if opts.Ranked {
		if err := s.startRanked(ctx, q, opts); err != nil {
			return nil, err
		}
	} else if err := s.startPlain(ctx, q, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// Next advances to the next result. It returns false when the stream
// is exhausted, the limit is reached, or an error occurred (check Err).
func (s *Stream) Next() bool {
	if s.err != nil || s.closed {
		return false
	}
	if s.limit > 0 && s.emitted >= s.limit {
		return false
	}
	if s.lazy != nil {
		el, ok, err := s.lazy.next(s.cc)
		if err != nil {
			s.err = err
			return false
		}
		if !ok {
			return false
		}
		s.cur = Match{Element: el}
	} else {
		if s.pos >= s.resLen() {
			return false
		}
		if s.isRank {
			s.cur = s.ranked[s.pos]
		} else {
			s.cur = Match{Element: s.ids[s.pos]}
		}
		s.pos++
	}
	s.emitted++
	if s.plan != nil {
		s.plan.Matches = s.emitted
	}
	return true
}

func (s *Stream) resLen() int {
	if s.isRank {
		return len(s.ranked)
	}
	return len(s.ids)
}

// Element returns the current result's global element ID.
func (s *Stream) Element() int32 { return s.cur.Element }

// Score returns the current result's connection score (0 for unranked
// streams).
func (s *Stream) Score() float64 { return s.cur.Score }

// Path returns the current result's witness path (ranked streams only).
func (s *Stream) Path() []int32 { return s.cur.Path }

// Err returns the first error the stream hit (e.g. a cancelled
// context), or nil.
func (s *Stream) Err() error { return s.err }

// Close releases the stream's pooled scratch state. Idempotent.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.lazy != nil {
		s.lazy.release()
		s.lazy = nil
	}
}

// --- plain (unranked) -------------------------------------------------

func (s *Stream) startPlain(ctx context.Context, q *Query, opts StreamOpts) error {
	e := s.e
	last := len(q.Steps) - 1
	final := q.Steps[last]

	// The pushdown pays off only when the final step can stop early:
	// with no limit (and no resume point) the set-at-a-time batch
	// evaluator touches each posting once, which is strictly cheaper
	// than per-candidate probing — keep it. Forced pairwise mode also
	// stays on the batch path so the equivalence suite compares
	// identical evaluators.
	pushdown := (opts.Limit > 0 || opts.HasAfter) && e.mode != EvalPairwise

	if !pushdown {
		ids, err := e.evalCtx(ctx, q, opts.Plan)
		if err != nil {
			return err
		}
		s.ids = ids
		if opts.HasAfter {
			s.pos = sort.Search(len(ids), func(i int) bool { return ids[i] > opts.After })
		}
		return nil
	}

	// Evaluate the prefix set-at-a-time, then stream the final step.
	if last == 0 {
		s.lazy = e.newLazyScan(q, nil, final, 0, opts)
		return nil
	}
	frontier := e.initialFrontier(q, opts.Plan.step(0))
	for si := 1; si < last; si++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(frontier) == 0 {
			opts.Plan.skipFrom(si)
			return nil // empty stream
		}
		var err error
		frontier, err = e.advance(frontier, q.Steps[si], s.cc, opts.Plan.step(si))
		if err != nil {
			return err
		}
	}
	if len(frontier) == 0 {
		opts.Plan.skipFrom(last)
		return nil
	}
	s.lazy = e.newLazyScan(q, frontier, final, last, opts)
	return nil
}

// lazyScan streams the final step in ascending element order, probing
// one candidate at a time against the precomputed frontier center sets
// — so a stream stopped after k results has scanned only the label
// entries of the candidates up to the k-th match, not the whole
// posting index.
type lazyScan struct {
	e     *Engine
	cands []int32
	idx   int

	// mode flags: exactly one of seed/child is meaningful; otherwise
	// the descendant semijoin test runs.
	seed      bool // single-step query: the step is the seed itself
	seedChild bool // seed with a leading "/": roots only
	child     bool // final step is a "/" step: parent ∈ frontier

	fset   graph.Bitset // frontier elements
	xset   graph.Bitset // frontier Lout centers (direct matches)
	fx     graph.Bitset // fset ∪ xset: the Lin-side probe set
	pooled []graph.Bitset
	cyclic graph.Bitset
	cov    *twohop.Cover
	sp     *StepPlan
}

func (e *Engine) newLazyScan(q *Query, frontier []int32, final Step, last int, opts StreamOpts) *lazyScan {
	ls := &lazyScan{
		e:      e,
		cands:  e.candidates(final.Tag),
		cov:    e.ix.Cover(),
		cyclic: e.ix.CyclicSet(),
		sp:     opts.Plan.step(last),
	}
	if opts.HasAfter {
		ls.idx = sort.Search(len(ls.cands), func(i int) bool { return ls.cands[i] > opts.After })
	}
	mode := ModeStreamSemijoin
	switch {
	case last == 0:
		ls.seed = true
		ls.seedChild = final.Axis == AxisChild
		mode = ModeStreamSeed
	case final.Axis == AxisChild:
		ls.child = true
		mode = ModeStreamChild
		ls.fset = e.scratch.Get(e.scratchSize())
		ls.pooled = []graph.Bitset{ls.fset}
		for _, f := range frontier {
			ls.fset.Set(int(f))
		}
	default:
		ls.fset = e.scratch.Get(e.scratchSize())
		ls.xset = e.scratch.Get(e.scratchSize())
		ls.fx = e.scratch.Get(e.scratchSize())
		ls.pooled = []graph.Bitset{ls.fset, ls.xset, ls.fx}
		touched := 0
		for _, f := range frontier {
			ls.fset.Set(int(f))
			lout := ls.cov.Lout(f)
			touched += len(lout)
			for _, en := range lout {
				ls.xset.Set(int(en.Center))
			}
		}
		ls.fx.Or(ls.fset)
		ls.fx.Or(ls.xset)
		ls.sp.touch(touched)
		if ls.sp != nil {
			ls.sp.Centers = ls.xset.Count()
		}
	}
	ls.sp.record(mode, len(ls.cands), len(frontier), 0)
	return ls
}

// next scans forward to the next matching candidate.
func (ls *lazyScan) next(cc *canceller) (int32, bool, error) {
	for ls.idx < len(ls.cands) {
		if err := cc.check(); err != nil {
			return 0, false, err
		}
		c := ls.cands[ls.idx]
		ls.idx++
		if ls.matches(c) {
			if ls.sp != nil {
				ls.sp.FrontierOut++
			}
			return c, true, nil
		}
	}
	return 0, false, nil
}

// matches is the per-candidate membership test, equivalent to the batch
// semijoin: c matches iff it is a frontier Lout center (direct), a
// cyclic frontier element (self-match), or one of its Lin centers lies
// in F ∪ X (the f ∈ Lin(c) case and the Lout ∩ Lin join).
func (ls *lazyScan) matches(c int32) bool {
	if ls.seed {
		return !ls.seedChild || ls.e.isRoot(c)
	}
	if ls.child {
		p := ls.e.parentOf(c)
		return p >= 0 && ls.fset.Has(int(p))
	}
	if ls.xset.Has(int(c)) {
		return true
	}
	if ls.fset.Has(int(c)) && ls.cyclic.Has(int(c)) {
		return true
	}
	in := ls.cov.Lin(c)
	ls.sp.touch(len(in))
	for _, en := range in {
		if ls.fx.Has(int(en.Center)) {
			return true
		}
	}
	return false
}

func (ls *lazyScan) release() {
	for _, b := range ls.pooled {
		ls.e.scratch.Put(b)
	}
	ls.pooled = nil
}

// --- ranked -------------------------------------------------------------

// startRanked materializes the ranked page: every step runs the ranked
// pipeline, and the final column yields the first Limit matches past the
// resume boundary.
func (s *Stream) startRanked(ctx context.Context, q *Query, opts StreamOpts) error {
	var after *matchPos
	if opts.HasAfter {
		after = &matchPos{score: opts.AfterScore, elem: opts.After}
	}
	ranked, err := s.e.rankedMatches(ctx, q, after, opts.Limit, opts.Plan)
	if err != nil {
		return err
	}
	s.ranked, s.isRank = ranked, true
	return nil
}

// Explain runs the query to completion (under the given limit and
// ranking) and returns the per-step execution report.
func (e *Engine) Explain(ctx context.Context, q *Query, ranked bool, limit int) (*Plan, error) {
	plan := newPlan(q, ranked, limit)
	start := time.Now()
	st, err := e.Stream(ctx, q, StreamOpts{Limit: limit, Ranked: ranked, Plan: plan})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for st.Next() {
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	plan.Elapsed = time.Since(start)
	return plan, nil
}
