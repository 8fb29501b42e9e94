package query

import (
	"context"
	"time"
)

// StreamOpts configures one cursor execution.
type StreamOpts struct {
	// Limit stops the stream after this many results (<= 0: unlimited).
	// The plain path tests the final step's candidates in ascending
	// element order and stops reading labels once Limit results are
	// emitted; the ranked path scores the final step in full and
	// selects the top Limit.
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
// compile/execute split. Prefix steps are materialized exactly as in
// Eval; an unranked final step streams. Use:
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

	scan   *stepScan // the unranked final step, nil when a prefix step emptied the frontier
	ranked []Match   // the ranked page
	pos    int
}

// Stream starts a cursor over the query. Prefix steps are evaluated
// eagerly, as in EvalCtx; an unranked final step is evaluated lazily, a
// ranked one in full before its page is selected.
func (e *Engine) Stream(ctx context.Context, q *Query, opts StreamOpts) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Stream{e: e, cc: &canceller{ctx: ctx}, limit: opts.Limit, plan: opts.Plan}
	if opts.Ranked {
		if err := s.startRanked(ctx, q, opts); err != nil {
			return nil, err
		}
		return s, nil
	}
	sc, err := e.finalScan(ctx, q, s.cc, opts.Plan)
	if err != nil {
		return nil, err
	}
	if sc != nil && opts.HasAfter {
		sc.skipPast(opts.After)
	}
	s.scan = sc
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
	if s.scan != nil {
		el, ok, err := s.scan.next(s.cc)
		if err != nil {
			s.err = err
			return false
		}
		if !ok {
			return false
		}
		s.cur = Match{Element: el}
	} else {
		if s.pos >= len(s.ranked) {
			return false
		}
		s.cur = s.ranked[s.pos]
		s.pos++
	}
	s.emitted++
	if s.plan != nil {
		s.plan.Matches = s.emitted
	}
	return true
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
	if s.scan != nil {
		s.scan.release()
		s.scan = nil
	}
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
	s.ranked = ranked
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
