package hopi

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hopi/internal/shardrouter"
)

// This file is the public face of the distributed query tier
// (internal/shardrouter): a Router owning N shard primaries, routing
// writes by shard key and fanning queries out with a serving-tier
// semijoin over shipped frontier centers. See README "Sharding".

// ShardMap is the versioned document→shard assignment a Router serves
// from (see BuildShardMap, LoadShardMap).
type ShardMap = shardrouter.ShardMap

// ShardConn is one shard primary as the router sees it; NewLocalShard
// adapts an in-process Index, shardrouter.NewHTTPShard a hopiserve URL.
type ShardConn = shardrouter.Conn

// RouterResult is one result row of a distributed query.
type RouterResult = shardrouter.Result

// RouterPage is one page of distributed-query results plus the vector
// resume token for the next page, if any.
type RouterPage = shardrouter.Page

// RouterQueryOptions selects ranking, a result limit, and/or a resume
// token for Router.Query.
type RouterQueryOptions = shardrouter.QueryOptions

// ShardInsertResult reports a routed document insert.
type ShardInsertResult = shardrouter.InsertResult

// Router is a distributed query tier over sharded primaries: writes
// route by the shard map, descendant-axis queries fan out to every
// shard concurrently and join across shards at the serving tier.
// Pagination uses vector resume tokens — one {scope, epoch} per shard
// plus the map version — with the same staleness semantics as
// single-index tokens (any write to any shard retires them; a lagging
// shard makes the error retryable).
type Router struct {
	r *shardrouter.Router
}

// RouterOption tunes router construction (see RouterBreakerWindow,
// RouterSlowQueryLog; shardrouter options pass through unchanged).
type RouterOption = shardrouter.Option

// RouterBreakerWindow sets how long the router's per-shard circuit
// breaker stays open after a transport failure before the next probe
// (default 250ms). Non-positive keeps the default.
func RouterBreakerWindow(d time.Duration) RouterOption {
	return shardrouter.WithBreakerWindow(d)
}

// RouterQueryTrace is the assembled span tree a traced distributed
// query produces: one span per shard RPC, each echoing the query's
// trace ID with the shard's own queue/eval/encode timings. Its
// Format method renders the slow-query log line.
type RouterQueryTrace = shardrouter.QueryTrace

// RouterSlowQueryLog arms the router's slow-query log: every query
// is traced, and fn receives the span tree for queries whose wall
// time reaches threshold (0 logs every query — the tracing smoke
// setting). fn must not retain the trace's spans beyond the call.
func RouterSlowQueryLog(threshold time.Duration, fn func(*RouterQueryTrace)) RouterOption {
	return shardrouter.WithSlowQueryLog(threshold, fn)
}

// NewRouter assembles a router over one connection per shard in the
// map. mapPath, when non-empty, persists every map mutation there
// atomically (LoadShardMap reads it back).
func NewRouter(conns []ShardConn, m *ShardMap, mapPath string, opts ...RouterOption) (*Router, error) {
	var all []shardrouter.Option
	if mapPath != "" {
		all = append(all, shardrouter.WithMapPath(mapPath))
	}
	all = append(all, opts...)
	r, err := shardrouter.New(conns, m, all...)
	if err != nil {
		return nil, err
	}
	return &Router{r: r}, nil
}

// BuildShardMap partitions an existing collection's document graph
// with the paper's closure-budget partitioner (§4.1/§4.3 weights from
// opts) and bin-packs the partitions onto numShards shards, so tightly
// linked documents co-locate and few links cross shards. The
// partitioner's closure budget is chosen from the collection and shard
// count — opts.ClosureBudget is the per-index build budget, a
// different granularity (use shardrouter.BuildShardMap directly to
// override the map-level budget).
func BuildShardMap(coll *Collection, numShards int, opts Options) (*ShardMap, error) {
	return shardrouter.BuildShardMap(coll.c, numShards, shardrouter.BuildConfig{
		Weights:       opts.Weights,
		SkeletonDepth: opts.SkeletonDepth,
		Seed:          opts.Seed,
	})
}

// LoadShardMap reads a persisted shard map.
func LoadShardMap(path string) (*ShardMap, error) { return shardrouter.LoadShardMap(path) }

// SplitCollection materializes each shard's slice of the collection
// (documents in ordinal order, same-shard links only); cross-shard
// links stay in the map and are joined by the router at query time.
func SplitCollection(coll *Collection, m *ShardMap) []*Collection {
	parts := shardrouter.SplitCollection(coll.c, m)
	out := make([]*Collection, len(parts))
	for i, p := range parts {
		out[i] = WrapCollection(p)
	}
	return out
}

// Map returns the currently published shard map (immutable; callers
// must not modify it).
func (r *Router) Map() *ShardMap { return r.r.Map() }

// NumShards returns the router's shard count.
func (r *Router) NumShards() int { return r.r.NumShards() }

// InsertXML routes a new document to the least-loaded shard, resolves
// its cross-shard link targets, and publishes the updated map.
func (r *Router) InsertXML(ctx context.Context, name string, data []byte) (*ShardInsertResult, error) {
	res, err := r.r.InsertXML(ctx, name, data)
	return res, translateRouterErr(err)
}

// DeleteDocument removes a document from its shard and the map,
// dropping cross-shard links touching it.
func (r *Router) DeleteDocument(ctx context.Context, name string) error {
	return translateRouterErr(r.r.DeleteDocument(ctx, name))
}

// InsertLink adds a link between element specs ("doc", "doc:idx", or
// "doc#anchor" for the target): same-shard links go to the shard,
// cross-shard links into the router's map.
func (r *Router) InsertLink(ctx context.Context, from, to string) error {
	return translateRouterErr(r.r.InsertLink(ctx, from, to))
}

// DeleteLink removes a previously inserted link (first match, like
// single-index delete).
func (r *Router) DeleteLink(ctx context.Context, from, to string) error {
	return translateRouterErr(r.r.DeleteLink(ctx, from, to))
}

// Query evaluates a path expression across all shards and returns
// globally merged results in the canonical single-index order (byte
// identical to an unsharded index over the same collection). Token
// errors surface as this package's sentinels: errors.Is ErrBadToken /
// ErrStaleToken, with *StaleTokenError carrying Retryable when a
// lagging shard will accept the token once caught up.
func (r *Router) Query(ctx context.Context, expr string, opt RouterQueryOptions) (*RouterPage, error) {
	p, err := r.r.Query(ctx, expr, opt)
	return p, translateRouterErr(err)
}

// Ready reports whether every shard is reachable and ready (see
// ReplicaStatus.Ready); Unwrap().Ready says which shard is not.
func (r *Router) Ready(ctx context.Context) bool { return r.r.Ready(ctx).Ready }

// Unwrap exposes the underlying shardrouter.Router for serving code.
func (r *Router) Unwrap() *shardrouter.Router { return r.r }

// translateRouterErr maps the router tier's sentinels onto this
// package's, so callers handle sharded and single-index errors with
// one errors.Is vocabulary.
func translateRouterErr(err error) error {
	if err == nil {
		return nil
	}
	var sv *shardrouter.StaleVectorError
	switch {
	case errors.As(err, &sv):
		return &StaleTokenError{
			TokenEpoch:    sv.TokenEpoch,
			SnapshotEpoch: sv.ShardEpoch,
			Retryable:     sv.Retryable,
		}
	case errors.Is(err, shardrouter.ErrBadToken):
		return fmt.Errorf("%w: %v", ErrBadToken, err)
	case errors.Is(err, shardrouter.ErrStaleToken):
		return fmt.Errorf("%w: %v", ErrStaleToken, err)
	case errors.Is(err, shardrouter.ErrNotFound):
		return fmt.Errorf("%w: %v", ErrNotFound, err)
	case errors.Is(err, shardrouter.ErrExists):
		return fmt.Errorf("%w: %v", ErrExists, err)
	}
	return err
}
