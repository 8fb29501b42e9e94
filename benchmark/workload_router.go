package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hopi"
	"hopi/internal/shardrouter"
	"hopi/internal/xmlmodel"
)

// recConn is the recording decorator around a shard connection: every
// RPC the router makes is counted, timed and, on traced runs, recorded
// as a span under the query (or insert) that caused it.
type recConn struct {
	hopi.ShardConn
	r     *run
	stats *rpcStats
}

// rpcStats accumulates the decorator's counts for one window.
type rpcStats struct {
	step, closure, deliver, write     atomic.Int64
	stepNs, closureNs, deliverNs, wNs atomic.Int64
}

func (s *rpcStats) reset() { *s = rpcStats{} }

func (c *recConn) observe(ctx context.Context, name string, n, ns *atomic.Int64, call func() error) error {
	parent, op := spanFrom(ctx)
	var err error
	d := c.r.timed(parent, op, name, func(int32) { err = call() })
	n.Add(1)
	ns.Add(int64(d))
	return err
}

func (c *recConn) Step(ctx context.Context, req *shardrouter.StepRequest) (resp *shardrouter.StepResponse, err error) {
	err = c.observe(ctx, "shardrouter.rpc.step", &c.stats.step, &c.stats.stepNs, func() error {
		resp, err = c.ShardConn.Step(ctx, req)
		return err
	})
	return resp, err
}

func (c *recConn) Closure(ctx context.Context, req *shardrouter.ClosureRequest) (resp *shardrouter.ClosureResponse, err error) {
	err = c.observe(ctx, "shardrouter.rpc.closure", &c.stats.closure, &c.stats.closureNs, func() error {
		resp, err = c.ShardConn.Closure(ctx, req)
		return err
	})
	return resp, err
}

func (c *recConn) Deliver(ctx context.Context, req *shardrouter.DeliverRequest) (resp *shardrouter.DeliverResponse, err error) {
	err = c.observe(ctx, "shardrouter.rpc.deliver", &c.stats.deliver, &c.stats.deliverNs, func() error {
		resp, err = c.ShardConn.Deliver(ctx, req)
		return err
	})
	return resp, err
}

func (c *recConn) Write(ctx context.Context, req *shardrouter.WriteRequest) (resp *shardrouter.WriteResult, err error) {
	err = c.observe(ctx, "hopi.shard.write", &c.stats.write, &c.stats.wNs, func() error {
		resp, err = c.ShardConn.Write(ctx, req)
		return err
	})
	return resp, err
}

func perOp(total, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(total) / float64(ops)
}

// routerXML is the document the paced writer inserts: an article citing
// one seeded original document, usually on another shard.
func routerXML(target string) []byte {
	return []byte(fmt.Sprintf(`<article><title>t</title><author/><cite href=%q/></article>`, target))
}

// runRouter is router-4shard: 1,000 documents split by BuildShardMap
// into four durable segment shards behind hopi.NewRouter. A closed-loop
// reader rotates the limit-25 queries, first alone (caches warm,
// endpoint graph memoized), then beside an open-loop writer at 10
// InsertXML per second, each of which bumps one shard's epoch.
func runRouter(r *run) error {
	const shards = 4
	docs := r.cfg.docsOr(1000)
	dir, err := os.MkdirTemp(r.cfg.tmpDir, "router")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	coll, setup := r.generate(docs) // stays unindexed: the oracle's mirror of what the shards hold
	opts := buildOpts(true)
	tBuild := time.Now()
	m, err := hopi.BuildShardMap(coll, shards, opts)
	if err != nil {
		return err
	}
	var (
		stats   rpcStats
		conns   []hopi.ShardConn
		indexes []*hopi.Index
	)
	defer func() {
		for _, ix := range indexes {
			ix.Close()
		}
	}()
	for i, part := range hopi.SplitCollection(coll, m) {
		ix, err := hopi.Create(filepath.Join(dir, fmt.Sprintf("shard%d", i)), part, opts, hopi.Segments())
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		indexes = append(indexes, ix)
		conn := hopi.NewLocalShard(fmt.Sprintf("s%d", i), ix)
		if r.cfg.trace {
			conn = &recConn{ShardConn: conn, r: r, stats: &stats}
		}
		conns = append(conns, conn)
	}
	r.set("build_s", r.clock.since(tBuild).Seconds(), 1)

	var (
		attemptsMu sync.Mutex
		attempts   []int
	)
	var ropts []hopi.RouterOption
	if r.cfg.trace {
		ropts = append(ropts, hopi.RouterSlowQueryLog(0, func(t *hopi.RouterQueryTrace) {
			attemptsMu.Lock()
			attempts = append(attempts, t.Attempts)
			attemptsMu.Unlock()
		}))
	}
	var router *hopi.Router
	setup += r.timed(-1, 0, "hopi.NewRouter", func(int32) { router, err = hopi.NewRouter(conns, m, "", ropts...) })
	if err != nil {
		return err
	}
	ctx := context.Background()
	query := func(ctx context.Context, expr string, limit int) ([]hopi.RouterResult, error) {
		page, err := router.Query(ctx, expr, hopi.RouterQueryOptions{Limit: limit})
		if err != nil {
			return nil, err
		}
		return page.Results, nil
	}
	read := func(c, i int, parent int32, op int64) error {
		_, err := query(withSpan(ctx, parent, op), serveExprs[(c+i)%len(serveExprs)], 25)
		var su *shardrouter.ShardUnavailableError
		if errors.As(err, &su) {
			return fmt.Errorf("shard unavailable (counted, not retried): %w", err)
		}
		return err
	}
	setup += r.warm(read, len(serveExprs)) // fills the closure cache and the endpoint-graph memo
	r.set("setup_s", setup.Seconds(), 1)
	var entries, sealedBytes, live int64
	for _, ix := range indexes {
		entries += int64(ix.Size())
		st := ix.SegmentStats()
		sealedBytes += st.SealedBytes
		live += st.LiveEntries
	}
	r.set("cover_entries", float64(entries), shards)
	r.set("bytes_per_label", float64(sealedBytes)/float64(max(live, 1)), int(live))
	r.routerOracle("router-4shard quiescent", coll.Unwrap(), query)

	cited := newTargets(rand.New(rand.NewSource(r.cfg.seed)), docs)
	var (
		inserted [][]byte
		parse    lats
		service  lats
	)
	write := func(_, i int, parent int32, op int64) error {
		data := routerXML(cited.next())
		if r.cfg.trace { // the parse the router repeats inside InsertXML, on its own
			parse = append(parse, r.timed(parent, op, "xmlmodel.ParseDocument", func(int32) {
				_, _, _ = xmlmodel.ParseDocument("probe.xml", data)
			}))
		}
		t := time.Now()
		_, err := router.InsertXML(withSpan(ctx, parent, op), fmt.Sprintf("ins-%06d.xml", i), data)
		service = append(service, r.clock.since(t))
		if err == nil {
			inserted = append(inserted, data)
		}
		return err
	}

	before := router.Unwrap().Counters()
	mid := before
	r.serve(serving{read: read, cycle: len(serveExprs), probe: limitProbe, write: write, rate: 10,
		afterRO: func(ro windowResult) {
			mid = router.Unwrap().Counters()
			r.set("shardrouter.closure_cache_hit_rate_ro", hitRate(before, mid), len(ro.reads))
			if r.cfg.trace {
				n := int64(len(ro.reads))
				r.set("shardrouter.step_rpcs_per_query_ro", perOp(stats.step.Load(), n), int(n))
				r.set("shardrouter.closure_rpcs_per_query_ro", perOp(stats.closure.Load(), n), int(n))
				r.set("shardrouter.router_self_ms_ro", r.meanSelfMs("ro.read"), int(n))
				stats.reset()
				attemptsMu.Lock()
				attempts = attempts[:0]
				attemptsMu.Unlock()
			}
		},
		afterMixed: func(ro, mixed windowResult) {
			r.set("shardrouter.closure_cache_hit_rate_mixed", hitRate(mid, router.Unwrap().Counters()), len(mixed.reads))
			r.set("shardrouter.mixed_over_ro_qps", r.get("query_qps")/r.get("ro_query_qps"), len(mixed.reads))
			r.set("shardrouter.insert_ms", service.meanMs(), len(service))
			if r.cfg.trace {
				attemptsMu.Lock()
				r.routerLayers(&stats, mixed, parse, attempts)
				attemptsMu.Unlock()
			}
		}})
	// Quiescent again: the mirror takes the same inserts, in order, and
	// the router must answer exactly as the oracle does over it.
	for i, data := range inserted {
		if _, _, err := coll.AddXML(fmt.Sprintf("ins-%06d.xml", i), data); err != nil {
			return err
		}
	}
	if len(inserted) != len(service) {
		// a failed insert leaves a gap in the names; the mirror above
		// would misname what follows, so say so instead of comparing
		r.finding("router-4shard: %d of %d inserts failed; post-write oracle skipped", len(service)-len(inserted), len(service))
		return nil
	}
	r.routerOracle("router-4shard after writes", coll.Unwrap(), query)
	return nil
}

func hitRate(from, to shardrouter.Counters) float64 {
	hits := to.ClosureCacheHits - from.ClosureCacheHits
	misses := to.ClosureCacheMisses - from.ClosureCacheMisses
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// routerOracle compares the router's answers, at limit 25 and in full,
// with the BFS oracle over the unsharded mirror collection. Results
// must agree element by element and in order: what a single index over
// the whole collection would return.
func (r *run) routerOracle(what string, mirror *xmlmodel.Collection, query func(context.Context, string, int) ([]hopi.RouterResult, error)) {
	o := newPathOracle(mirror)
	for _, e := range serveExprs {
		m, err := o.eval(e)
		if err != nil {
			r.check(false, "%s: oracle %s: %v", what, e, err)
			continue
		}
		want := ordered(m, false)
		for _, limit := range []int{25, 0} {
			got, err := query(context.Background(), e, limit)
			exp := want
			if limit > 0 {
				exp = want[:min(limit, len(want))]
			}
			ok := err == nil && len(got) == len(exp)
			for i := 0; ok && i < len(got); i++ {
				doc, local := mirror.LocalID(exp[i].elem)
				ok = got[i].Doc == mirror.Docs[doc].Name && got[i].Local == local && got[i].Tag == mirror.Tag(exp[i].elem)
			}
			r.check(ok, "%s: %s limit %d: router returned %d results (err %v), oracle %d", what, e, limit, len(got), err, len(exp))
		}
	}
}

// routerLayers reports what the decorator and the router's own trace saw
// in the mixed window, and reconciles them with the query latency.
func (r *run) routerLayers(stats *rpcStats, mixed windowResult, parse lats, attempts []int) {
	n := int64(len(mixed.reads))
	r.set("shardrouter.step_rpcs_per_query", perOp(stats.step.Load(), n), int(n))
	r.set("shardrouter.closure_rpcs_per_query", perOp(stats.closure.Load(), n), int(n))
	r.set("shardrouter.deliver_rpcs_per_query", perOp(stats.deliver.Load(), n), int(n))
	r.set("shardrouter.step_rpc_ms", perOp(stats.stepNs.Load(), stats.step.Load())/1e6, int(stats.step.Load()))
	r.set("shardrouter.closure_rpc_ms", perOp(stats.closureNs.Load(), stats.closure.Load())/1e6, int(stats.closure.Load()))
	r.set("shardrouter.deliver_rpc_ms", perOp(stats.deliverNs.Load(), stats.deliver.Load())/1e6, int(stats.deliver.Load()))
	r.set("hopi.shard_apply_ms", perOp(stats.wNs.Load(), stats.write.Load())/1e6, int(stats.write.Load()))
	r.set("xmlmodel.parse_us", 1e3*parse.meanMs(), len(parse))
	self := r.meanSelfMs("mixed.read")
	r.set("shardrouter.router_self_ms", self, int(n))
	total := 0
	for _, a := range attempts {
		total += a
	}
	r.set("shardrouter.attempts_per_query_mixed", perOp(int64(total), int64(len(attempts))), len(attempts))
	// Reconciliation: router self time plus the time inside shard RPCs
	// should account for the mean query latency.
	rpc := float64(stats.stepNs.Load()+stats.closureNs.Load()+stats.deliverNs.Load()) / 1e6 / float64(max(n, 1))
	mean := mixed.reads.meanMs()
	if gap := (self + rpc - mean) / mean; gap > 0.10 || gap < -0.10 {
		r.finding("router-4shard mixed: router self %.2fms + shard RPCs %.2fms against mean query latency %.2fms: %.0f%% apart (limit 10%%; RPCs to different shards overlap)",
			self, rpc, mean, 100*gap)
	}
}
