package hopi

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"hopi/internal/query"
)

// Sentinel errors for resume-token validation; match with errors.Is.
var (
	// ErrBadToken wraps malformed resume tokens and tokens issued for a
	// different query or ranking mode.
	ErrBadToken = errors.New("invalid page token")
	// ErrStaleToken wraps resume tokens issued against a different
	// snapshot epoch: the index has been maintained since the token was
	// handed out, so the page sequence it belongs to no longer exists.
	// Restart the query from the beginning — unless the failure is a
	// *StaleTokenError with Retryable set, in which case this replica
	// simply has not applied the token's batch yet and the same token
	// will succeed once it catches up.
	ErrStaleToken = errors.New("stale page token: snapshot epoch changed")
)

// StaleTokenError is the concrete error for an epoch-mismatched resume
// token; errors.Is(err, ErrStaleToken) matches it. On snapshots whose
// epoch is a durable WAL sequence (durable primaries and replication
// followers — see Snapshot.Epoch), the mismatch is ordered: a token
// stamped ahead of the snapshot means the serving replica is behind
// the replica that issued it, and Retryable is set — the caller should
// retry the same token (HTTP servers translate this to 503 with
// Retry-After rather than 400), not restart the page walk.
type StaleTokenError struct {
	TokenEpoch    uint64
	SnapshotEpoch uint64
	Retryable     bool
}

func (e *StaleTokenError) Error() string {
	if e.Retryable {
		return fmt.Sprintf("stale page token: snapshot epoch changed (token epoch %d ahead of replica epoch %d; retry once the replica catches up)",
			e.TokenEpoch, e.SnapshotEpoch)
	}
	return fmt.Sprintf("stale page token: snapshot epoch changed (token epoch %d, snapshot epoch %d)", e.TokenEpoch, e.SnapshotEpoch)
}

// Unwrap lets errors.Is(err, ErrStaleToken) match.
func (e *StaleTokenError) Unwrap() error { return ErrStaleToken }

// PreparedQuery is the compiled, snapshot-independent form of a path
// expression: the parsed steps plus per-step metadata. Prepare once,
// run against any snapshot of any index — Snapshot.Run, Snapshot.
// Explain, Index.Run and the QueryCtx compatibility wrappers all
// execute prepared queries, so a hot expression parses exactly once
// (cmd/hopiserve keeps an LRU cache of them keyed by expression).
type PreparedQuery struct {
	q    *query.Query
	hash uint32
}

// Prepare parses and compiles a path expression such as
// "//book//author" or "/bib/book//title".
func Prepare(expr string) (*PreparedQuery, error) {
	q, err := query.Parse(expr)
	if err != nil {
		return nil, err
	}
	h := fnv.New32a()
	h.Write([]byte(q.Canonical()))
	return &PreparedQuery{q: q, hash: h.Sum32()}, nil
}

// String returns the query's expression.
func (p *PreparedQuery) String() string { return p.q.String() }

// NumSteps returns the number of location steps.
func (p *PreparedQuery) NumSteps() int { return len(p.q.Steps) }

// PreparedStep describes one compiled location step.
type PreparedStep struct {
	// Axis is "/" (child) or "//" (descendant-or-link).
	Axis string
	// Tag is the step's tag test; "*" matches any element.
	Tag string
}

// Steps returns the compiled location steps.
func (p *PreparedQuery) Steps() []PreparedStep {
	out := make([]PreparedStep, len(p.q.Steps))
	for i, s := range p.q.Steps {
		out[i].Tag = s.Tag
		out[i].Axis = "/"
		if s.Axis == query.AxisDescendant {
			out[i].Axis = "//"
		}
	}
	return out
}

// Plan is the EXPLAIN report of one query execution: per step, its
// mode (seed, child, descendant, ranked-descendant or skipped), the
// candidate-set size, the frontier sizes, and the label entries read.
// See Snapshot.Explain.
type Plan = query.Plan

// StepPlan is one step of a Plan.
type StepPlan = query.StepPlan

// --- resume tokens ----------------------------------------------------

// resumePos is the decoded content of a resume token: where to pick a
// query back up, and the guards that make the token safe to accept
// from an untrusted client.
type resumePos struct {
	scope    uint64  // replication-scope identity of the issuing index
	epoch    uint64  // snapshot epoch the token was issued at
	hash     uint32  // prepared-query hash the token belongs to
	ranked   bool    // ranking mode the token was issued under
	hasAfter bool    // false: resume from the start
	after    int32   // last emitted element
	score    float64 // its score (ranked order tiebreak)
}

const (
	tokenVersion = 2 // v2 added the 8-byte scope; v1 tokens are rejected
	tokenLen     = 1 + 8 + 8 + 4 + 1 + 4 + 8
)

func (t resumePos) encode() string {
	var b [tokenLen]byte
	b[0] = tokenVersion
	binary.LittleEndian.PutUint64(b[1:], t.scope)
	binary.LittleEndian.PutUint64(b[9:], t.epoch)
	binary.LittleEndian.PutUint32(b[17:], t.hash)
	var flags byte
	if t.ranked {
		flags |= 1
	}
	if t.hasAfter {
		flags |= 2
	}
	b[21] = flags
	binary.LittleEndian.PutUint32(b[22:], uint32(t.after))
	binary.LittleEndian.PutUint64(b[26:], math.Float64bits(t.score))
	return base64.RawURLEncoding.EncodeToString(b[:])
}

func decodeToken(s string) (resumePos, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return resumePos{}, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	if len(raw) != tokenLen || raw[0] != tokenVersion {
		return resumePos{}, fmt.Errorf("%w: wrong length or version", ErrBadToken)
	}
	return resumePos{
		scope:    binary.LittleEndian.Uint64(raw[1:]),
		epoch:    binary.LittleEndian.Uint64(raw[9:]),
		hash:     binary.LittleEndian.Uint32(raw[17:]),
		ranked:   raw[21]&1 != 0,
		hasAfter: raw[21]&2 != 0,
		after:    int32(binary.LittleEndian.Uint32(raw[22:])),
		score:    math.Float64frombits(binary.LittleEndian.Uint64(raw[26:])),
	}, nil
}

// --- cursor -----------------------------------------------------------

// Cursor iterates a query's results one at a time:
//
//	cur, err := snap.Run(ctx, pq, hopi.QueryLimit(10))
//	for cur.Next() { use(cur.Result()) }
//	err = cur.Err()
//	cur.Close()
//
// Unranked results stream in ascending element order, ranked results
// in (score desc, element asc) order — both identical to the order
// QueryCtx materializes, so a limited cursor yields exactly a prefix
// of the unlimited result. With QueryLimit the final step's evaluation
// stops early (limit pushdown); Token returns an opaque resume token
// for the position after the last result, valid on snapshots of the
// same epoch only. A Cursor is single-goroutine; Close is idempotent.
type Cursor struct {
	snap   *Snapshot
	st     *query.Stream
	pq     *PreparedQuery
	ranked bool
	limit  int
	n      int
	cur    QueryResult

	last    resumePos // position after the last emitted result
	hasMore bool
	peeked  bool

	// Metrics plumbing: start stamps Run time, plan records the
	// per-step evaluation modes (labeling the latency histogram), and
	// observed keeps the idempotent Close from double-counting. All
	// zero when the snapshot has no metrics hub.
	start    time.Time
	plan     *query.Plan
	observed bool
}

// Run starts a cursor over a prepared query. Options: QueryLimit (the
// cursor stops after n results, and the final step's evaluation stops
// expanding postings early), QueryRanked, and QueryResume (continue
// after a previous cursor's Token). A resume token from a different
// query or ranking mode fails with ErrBadToken; one from a different
// snapshot epoch with ErrStaleToken.
func (s *Snapshot) Run(ctx context.Context, pq *PreparedQuery, opts ...QueryOption) (*Cursor, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	so := query.StreamOpts{Ranked: cfg.ranked}
	if cfg.limit > 0 {
		// Ask the engine for one extra result: it makes HasMore (and
		// the server's nextPageToken decision) free, at the cost of at
		// most one additional match.
		so.Limit = cfg.limit + 1
	}
	c := &Cursor{snap: s, pq: pq, ranked: cfg.ranked, limit: cfg.limit}
	if s.met != nil {
		// Attach a plan so the run records which evaluator each step
		// chose and the label entries it read; when the cursor closes,
		// the latency histogram is labeled by the final step's mode and
		// the label-entry counter takes the plan's sum.
		c.start = time.Now()
		c.plan = query.NewPlan(pq.q, cfg.ranked, cfg.limit)
		so.Plan = c.plan
	}
	c.last = resumePos{scope: s.scope, epoch: s.epoch, hash: pq.hash, ranked: cfg.ranked}
	if cfg.resume != "" {
		tok, err := decodeToken(cfg.resume)
		if err != nil {
			return nil, err
		}
		// Scope first: a token from an unrelated index (different store,
		// different replication group, a plain in-memory instance) is
		// invalid outright — sequence-valued epochs from different
		// groups must neither collide into a silent resume nor read as
		// "replica behind" and trap clients in 503 retries.
		if tok.scope != s.scope {
			return nil, fmt.Errorf("%w: issued by a different index", ErrBadToken)
		}
		if tok.epoch != s.epoch {
			return nil, &StaleTokenError{
				TokenEpoch:    tok.epoch,
				SnapshotEpoch: s.epoch,
				Retryable:     s.seqEpoch && tok.epoch > s.epoch,
			}
		}
		if tok.hash != pq.hash {
			return nil, fmt.Errorf("%w: issued for a different query", ErrBadToken)
		}
		if tok.ranked != cfg.ranked {
			return nil, fmt.Errorf("%w: issued for a different ranking mode", ErrBadToken)
		}
		if tok.hasAfter {
			so.HasAfter, so.After, so.AfterScore = true, tok.after, tok.score
			c.last = tok
		}
	}
	st, err := s.eng.Stream(ctx, pq.q, so)
	if err != nil {
		return nil, err
	}
	c.st = st
	return c, nil
}

// Run is a convenience wrapper over the current snapshot; see
// Snapshot.Run.
func (ix *Index) Run(ctx context.Context, pq *PreparedQuery, opts ...QueryOption) (*Cursor, error) {
	return ix.Snapshot().Run(ctx, pq, opts...)
}

// Next advances the cursor. It returns false when the result set is
// exhausted, the limit is reached, or evaluation failed — check Err.
func (c *Cursor) Next() bool {
	if c.limit > 0 && c.n >= c.limit {
		c.peek()
		return false
	}
	if !c.st.Next() {
		return false
	}
	c.n++
	el, score := c.st.Element(), c.st.Score()
	c.cur = c.snap.result(el, score, c.st.Path())
	c.last.hasAfter, c.last.after, c.last.score = true, el, score
	return true
}

// peek consumes the one extra result the stream was asked for, to
// learn whether anything follows the limit.
func (c *Cursor) peek() {
	if !c.peeked {
		c.peeked = true
		c.hasMore = c.st.Next()
	}
}

// Result returns the current result. Valid after Next returned true.
func (c *Cursor) Result() QueryResult { return c.cur }

// Err returns the first evaluation error (e.g. a cancelled context),
// or nil.
func (c *Cursor) Err() error { return c.st.Err() }

// Close releases the cursor's scratch state. Idempotent.
func (c *Cursor) Close() {
	c.st.Close()
	if c.snap.met != nil && !c.observed {
		c.observed = true
		c.snap.met.queryLatency.With(c.plan.DominantMode()).ObserveSince(c.start)
		c.snap.met.queryLabelEntries.Add(uint64(c.plan.LabelEntries()))
		c.snap.met.queryWalkNodes.Add(uint64(c.plan.WalkNodes()))
	}
}

// HasMore reports whether results remain past the limit — the signal
// to hand out Token as a next-page token. Only meaningful once Next
// has returned false.
func (c *Cursor) HasMore() bool {
	if c.limit > 0 && c.n >= c.limit {
		c.peek()
	}
	return c.hasMore
}

// Token returns an opaque resume token for the position after the last
// result returned by Next. Pass it to a later Run via QueryResume to
// continue the page sequence; tokens are valid only for the same query
// and ranking mode on a snapshot of the same epoch (maintenance bumps
// the epoch, invalidating outstanding tokens).
func (c *Cursor) Token() string { return c.last.encode() }

// Explain runs the prepared query to completion under the given
// options (QueryLimit and QueryRanked; QueryResume is ignored) and
// reports, per step, the evaluator chosen, the frontier and
// candidate-set sizes, and the posting entries touched. Evaluation
// polls ctx like every other query entry point.
func (s *Snapshot) Explain(ctx context.Context, pq *PreparedQuery, opts ...QueryOption) (*Plan, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return s.eng.Explain(ctx, pq.q, cfg.ranked, cfg.limit)
}

// Explain is a convenience wrapper over the current snapshot; see
// Snapshot.Explain.
func (ix *Index) Explain(ctx context.Context, pq *PreparedQuery, opts ...QueryOption) (*Plan, error) {
	return ix.Snapshot().Explain(ctx, pq, opts...)
}
