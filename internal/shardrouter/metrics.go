package shardrouter

import (
	"sync/atomic"

	"hopi/internal/obs"
)

// Metrics returns the router's metric registry — the serving-tier
// families a hopirouter process attaches to its /metrics tree. All
// values are sampled at scrape time from the counters the hot path
// already maintains (see Counters), so the query path pays nothing
// extra for exposition. Created on first use, lives for the router's
// lifetime.
func (r *Router) Metrics() *obs.Registry {
	if m := r.met.Load(); m != nil {
		return m
	}
	r.metMu.Lock()
	defer r.metMu.Unlock()
	if m := r.met.Load(); m != nil {
		return m
	}
	m := r.newMetrics()
	r.met.Store(m)
	return m
}

func (r *Router) newMetrics() *obs.Registry {
	reg := obs.NewRegistry()
	reg.CounterFunc("hopi_router_queries_total",
		"Distributed queries answered by this router.",
		func() float64 { return float64(r.queries.Load()) })
	reg.CounterFunc("hopi_router_results_streamed_total",
		"Result rows returned across all router queries.",
		func() float64 { return float64(r.streamed.Load()) })
	for _, rpc := range []struct {
		kind string
		n    *atomic.Uint64
	}{{"step", &r.stepRPCs}, {"closure", &r.closureRPCs}, {"deliver", &r.deliverRPCs}} {
		reg.CounterFuncVec("hopi_router_shard_rpcs_total",
			"Shard RPCs issued by the query fan-out, by RPC kind.",
			[]string{"rpc"}, []string{rpc.kind},
			func() float64 { return float64(rpc.n.Load()) })
	}
	reg.CounterFunc("hopi_router_closure_cache_hits_total",
		"Query attempts that found the pinned cut's endpoint graph memoized (no closure round).",
		func() float64 { return float64(r.graphHits.Load()) })
	reg.CounterFunc("hopi_router_closure_cache_misses_total",
		"Query attempts that ran a closure round and assembled the endpoint graph.",
		func() float64 { return float64(r.graphMisses.Load()) })
	reg.CounterFunc("hopi_router_wire_bytes_in_total",
		"Bytes received from shard connections (HTTP shards only).",
		func() float64 { return float64(r.wire.in.Load()) })
	reg.CounterFunc("hopi_router_wire_bytes_out_total",
		"Bytes sent to shard connections (HTTP shards only).",
		func() float64 { return float64(r.wire.out.Load()) })
	reg.GaugeFunc("hopi_router_shards",
		"Shard connections this router owns.",
		func() float64 { return float64(len(r.conns)) })
	reg.GaugeFunc("hopi_router_map_version",
		"Version of the published shard map.",
		func() float64 { return float64(r.cur.Load().Version) })
	reg.GaugeFunc("hopi_router_docs",
		"Documents in the shard map.",
		func() float64 { return float64(len(r.cur.Load().Docs)) })
	reg.GaugeFunc("hopi_router_cross_links",
		"Cross-shard links owned by the router.",
		func() float64 { return float64(len(r.cur.Load().CrossLinks)) })
	return reg
}
