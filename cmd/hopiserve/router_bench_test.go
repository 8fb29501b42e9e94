package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"hopi"
	"hopi/internal/gen"
	"hopi/internal/shardrouter"
)

// benchHTTPRouter stands up the root package's benchmark router — four
// shards over 200 generated DBLP documents — with every shard served by
// this command's handler behind httptest and reached over HTTPConn, so
// each RPC round pays a loopback HTTP round trip and the binary codec.
func benchHTTPRouter(b *testing.B) *hopi.Router {
	const docs, shards, seed = 200, 4, 42
	coll := hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(docs, seed)))
	opts := hopi.DefaultOptions()
	opts.Seed = seed
	m, err := hopi.BuildShardMap(coll, shards, opts)
	if err != nil {
		b.Fatal(err)
	}
	conns := make([]hopi.ShardConn, shards)
	for i, part := range hopi.SplitCollection(coll, m) {
		ix, err := hopi.Build(part, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { ix.Close() })
		srv := httptest.NewServer(newServer(ix, 0))
		b.Cleanup(srv.Close)
		conns[i] = shardrouter.NewHTTPShard(srv.URL, 10*time.Second)
	}
	router, err := hopi.NewRouter(conns, m, "")
	if err != nil {
		b.Fatal(err)
	}
	return router
}

// reportRPCs reports the router's shard RPCs per op by kind.
func reportRPCs(b *testing.B, router *hopi.Router, before shardrouter.Counters) {
	c := router.Unwrap().Counters()
	n := float64(b.N)
	b.ReportMetric(float64(c.StepRPCs-before.StepRPCs)/n, "step-rpcs/op")
	b.ReportMetric(float64(c.ClosureRPCs-before.ClosureRPCs)/n, "closure-rpcs/op")
	b.ReportMetric(float64(c.DeliverRPCs-before.DeliverRPCs)/n, "deliver-rpcs/op")
}

// BenchmarkRouterQueryWarmHTTP is BenchmarkRouterQueryWarm over HTTP
// shards: //article//cite//title repeated on a quiescent cut.
func BenchmarkRouterQueryWarmHTTP(b *testing.B) {
	router := benchHTTPRouter(b)
	ctx := context.Background()
	const expr = "//article//cite//title"
	if _, err := router.Query(ctx, expr, hopi.RouterQueryOptions{}); err != nil {
		b.Fatal(err)
	}
	before := router.Unwrap().Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := router.Query(ctx, expr, hopi.RouterQueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportRPCs(b, router, before)
}

// BenchmarkRouterQueryUnderInsertsHTTP is BenchmarkRouterQueryUnderInserts
// over HTTP shards: each op inserts one citing document, then runs
// //article//author across the new cut.
func BenchmarkRouterQueryUnderInsertsHTTP(b *testing.B) {
	const docs = 200
	router := benchHTTPRouter(b)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	before := router.Unwrap().Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xml := fmt.Sprintf(`<article><title>t</title><author/><cite href="pub%05d.xml"/></article>`, rng.Intn(docs))
		if _, err := router.InsertXML(ctx, fmt.Sprintf("bench%06d.xml", i), []byte(xml)); err != nil {
			b.Fatal(err)
		}
		if _, err := router.Query(ctx, "//article//author", hopi.RouterQueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportRPCs(b, router, before)
}
