package hopi

import (
	"context"

	"hopi/internal/core"
	"hopi/internal/query"
)

// Snapshot is an immutable, point-in-time view of an Index: a
// copy-on-write clone of the collection and cover plus a query engine
// for the clone. Publishing one costs what the batches since the
// previous snapshot changed, not the index size: the clone shares
// every document and label list the live index has not rewritten
// since, and the engine is the previous snapshot's, patched with the
// documents appended or tombstoned since. Snapshots are safe for
// unlimited concurrent use and are never invalidated — a reader keeps
// its snapshot for as long as it likes while Apply publishes newer
// states behind it. Obtain one with Index.Snapshot, which caches the
// latest snapshot and reuses it until the next maintenance batch.
type Snapshot struct {
	coll  *Collection
	ix    *core.Index
	eng   *query.Engine
	epoch uint64 // maintenance-batch counter at snapshot time
	// seqEpoch marks the epoch as a durable WAL sequence number
	// (totally ordered, portable across replicas of the same primary)
	// rather than a per-instance random counter; see StaleTokenError.
	seqEpoch bool
	// scope is the replication-scope identity tokens are bound to; see
	// Index.scope.
	scope uint64
	// met, when set, receives query-latency observations from cursors
	// opened on this snapshot; see metrics.go. Set by Index.Snapshot
	// before the snapshot is published, nil on hand-built snapshots.
	met *indexMetrics
	// memo keeps what the router's closure and deliver rounds asked of
	// this snapshot; see shardstep.go.
	memo shardMemo
}

// newSnapshot publishes src's current state. prev, when non-nil, is
// the previous snapshot of the same live index; its engine is derived
// rather than rebuilt.
func newSnapshot(src *core.Index, prev *Snapshot, epoch uint64, seqEpoch bool, scope uint64) *Snapshot {
	cix := src.Clone()
	var eng *query.Engine
	if prev != nil {
		eng = prev.eng.Derive(cix.Collection(), cix)
	} else {
		eng = query.NewEngine(cix.Collection(), cix)
	}
	return &Snapshot{
		coll:     &Collection{c: cix.Collection()},
		ix:       cix,
		eng:      eng,
		epoch:    epoch,
		seqEpoch: seqEpoch,
		scope:    scope,
		memo:     newShardMemo(),
	}
}

// Epoch returns the snapshot's maintenance epoch: an opaque version
// stamp bumped on every maintenance batch. Resume tokens embed it — a
// token is valid only on snapshots of the same epoch. For pure
// in-memory indexes the epoch is seeded randomly per instance, so a
// token from a different index or an earlier process fails
// ErrStaleToken instead of colliding. For indexes with an attached
// durable store (and for replication followers) the epoch is the
// durable WAL batch sequence: replicas of the same primary assign
// identical epochs to identical states, so a token issued by one
// replica resumes on any other that has applied the same sequence.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Collection returns the snapshot's frozen collection. It reflects the
// state at snapshot time and never changes.
func (s *Snapshot) Collection() *Collection { return s.coll }

// Reaches reports whether element u reaches element v over the
// ancestor/descendant/link axes.
func (s *Snapshot) Reaches(u, v ElemID) bool { return s.ix.Reaches(u, v) }

// Distance returns the shortest path length from u to v, or Infinite
// when v is unreachable. The index must be built with
// Options.WithDistance.
func (s *Snapshot) Distance(u, v ElemID) (uint32, error) { return s.ix.Distance(u, v) }

// Descendants returns all elements reachable from u, including u.
func (s *Snapshot) Descendants(u ElemID) []ElemID { return s.ix.Descendants(u) }

// Ancestors returns all elements that reach u, including u.
func (s *Snapshot) Ancestors(u ElemID) []ElemID { return s.ix.Ancestors(u) }

// Size returns the number of stored label entries |L| at snapshot
// time.
func (s *Snapshot) Size() int { return s.ix.Size() }

// Stats returns the build statistics of the underlying index.
func (s *Snapshot) Stats() core.BuildStats { return s.ix.Stats() }

// --- queries ----------------------------------------------------------

// queryConfig collects the options of one QueryCtx or Run call.
type queryConfig struct {
	limit  int
	ranked bool
	resume string
}

// QueryOption configures a QueryCtx call.
type QueryOption func(*queryConfig)

// QueryLimit truncates the result list to at most n entries (n <= 0
// means unlimited). For ranked queries the n best-scoring matches are
// kept; for unranked queries the n smallest element IDs.
func QueryLimit(n int) QueryOption {
	return func(c *queryConfig) { c.limit = n }
}

// QueryRanked ranks matches by connection length (XXL-style: closer
// matches score higher). Requires a distance-aware index.
func QueryRanked() QueryOption {
	return func(c *queryConfig) { c.ranked = true }
}

// QueryResume continues a query after a previous cursor's resume token
// (see Cursor.Token). The token must come from the same query and
// ranking mode on a snapshot of the same epoch.
func QueryResume(token string) QueryOption {
	return func(c *queryConfig) { c.resume = token }
}

// QueryCtx evaluates a path expression such as "//book//author"
// against the snapshot. The // axis follows parent-child edges and all
// links, crossing document boundaries; it matches over paths of length
// ≥ 1, so an element is its own //-descendant only through a genuine
// link cycle (on link-free trees //a//a is empty, as in XPath).
// Evaluation polls ctx and returns its error once it is cancelled;
// options select ranking and result truncation.
//
// QueryCtx is a compatibility wrapper over Prepare and Run: with
// QueryLimit the final step's evaluation stops early (limit pushdown)
// instead of materializing everything and slicing, and the limited
// result is exactly a prefix of the unlimited one.
func (s *Snapshot) QueryCtx(ctx context.Context, expr string, opts ...QueryOption) ([]QueryResult, error) {
	pq, err := Prepare(expr)
	if err != nil {
		return nil, err
	}
	cur, err := s.Run(ctx, pq, opts...)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []QueryResult
	for cur.Next() {
		out = append(out, cur.Result())
	}
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Query evaluates a path expression with default options and no
// cancellation.
func (s *Snapshot) Query(expr string) ([]QueryResult, error) {
	return s.QueryCtx(context.Background(), expr)
}

// QueryRanked evaluates a path expression and ranks matches by
// connection length. Requires a distance-aware index.
func (s *Snapshot) QueryRanked(expr string) ([]QueryResult, error) {
	return s.QueryCtx(context.Background(), expr, QueryRanked())
}

func (s *Snapshot) result(id ElemID, score float64, path []ElemID) QueryResult {
	return QueryResult{
		Element: id,
		Doc:     s.coll.DocName(s.coll.DocOf(id)),
		Tag:     s.coll.Tag(id),
		Score:   score,
		Path:    path,
	}
}
