package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hopi"
	"hopi/internal/obs"
	"hopi/internal/obshttp"
	"hopi/internal/shardrouter"
)

// scrape fetches url/metrics and parses it with the strict exposition
// parser — malformed text (duplicate headers, out-of-order samples,
// non-monotone histogram buckets) fails the test here.
func scrape(t *testing.T, base string) map[string]*obs.ParsedFamily {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	return fams
}

// counterTotal sums a family's samples, optionally filtered by one
// label value (empty value matches everything).
func counterTotal(fams map[string]*obs.ParsedFamily, name, label, value string) float64 {
	f := fams[name]
	if f == nil {
		return 0
	}
	var sum float64
	for _, s := range f.Samples {
		if value != "" && s.Labels[label] != value {
			continue
		}
		sum += s.Value
	}
	return sum
}

// TestMetricsExposition pins the hopiserve /metrics contract: the text
// parses strictly, the engine and serving families the dashboards key
// on are all present, and counters only ever move up across scrapes.
func TestMetricsExposition(t *testing.T) {
	coll, err := hopi.ParseCollection(map[string][]byte{
		"a.xml": []byte(`<article><title>t</title><author/></article>`),
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	ix, err := hopi.Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(ix, 0))
	defer srv.Close()

	before := scrape(t, srv.URL)
	for _, fam := range []string{
		// engine families (Index.Metrics, attached as a sub-registry)
		"hopi_query_seconds",
		"hopi_query_label_entries_total",
		"hopi_apply_seconds",
		"hopi_snapshot_publish_seconds",
		"hopi_build_phase_seconds",
		"hopi_wal_fsync_seconds",
		"hopi_replication_lag_batches",
		"hopi_replication_bootstraps_total",
		"hopi_segment_stack_depth",
		"hopi_segment_cache_misses_total",
		"hopi_segment_block_records_scanned_total",
		"hopi_watch_sessions",
		// serving families registered by newServer
		"hopi_serve_queries_total",
		"hopi_serve_results_streamed_total",
		"hopi_serve_prepared_cache_hits_total",
		"hopi_serve_prepared_cache_misses_total",
		"hopi_serve_prepared_cache_entries",
		"hopi_shard_rpcs_total",
	} {
		if before[fam] == nil {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if ht := before["hopi_query_seconds"]; ht != nil && ht.Type != "histogram" {
		t.Errorf("hopi_query_seconds TYPE = %s, want histogram", ht.Type)
	}
	// The build phase gauges and the distinct-list count are the
	// index's own BuildStats.
	st := ix.Stats()
	if got := counterTotal(before, "hopi_build_distinct_lists", "", ""); got != float64(st.DistinctLists) || got == 0 {
		t.Errorf("hopi_build_distinct_lists = %v, want BuildStats.DistinctLists = %d, not 0", got, st.DistinctLists)
	}
	for phase, want := range map[string]time.Duration{
		"partition": st.PartitionTime, "covers": st.CoverTime, "join": st.JoinTime,
	} {
		if got := counterTotal(before, "hopi_build_phase_seconds", "phase", phase); got != want.Seconds() {
			t.Errorf("hopi_build_phase_seconds{phase=%q} = %v, want %v", phase, got, want.Seconds())
		}
	}
	if f := before["hopi_build_phase_seconds"]; f != nil && (f.Type != "gauge" || len(f.Samples) != 3) {
		t.Errorf("hopi_build_phase_seconds: TYPE %s with %d samples, want a gauge with 3", f.Type, len(f.Samples))
	}

	// Serve queries from concurrent workers while scraping in parallel
	// (this test runs under -race in CI), then re-scrape: every counter
	// family must be monotone, and the families the traffic touched
	// must have moved.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, err := http.Get(srv.URL + "/query?expr=" + "//article//author")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query %d: %s", i, resp.Status)
					return
				}
				scrape(t, srv.URL)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	after := scrape(t, srv.URL)
	for name, f := range before {
		if f.Type != "counter" {
			continue
		}
		for _, s := range f.Samples {
			var now float64
			for _, ns := range after[name].Samples {
				if fmt.Sprint(ns.Labels) == fmt.Sprint(s.Labels) {
					now = ns.Value
				}
			}
			if now < s.Value {
				t.Errorf("counter %s%v went backwards: %v -> %v", name, s.Labels, s.Value, now)
			}
		}
	}
	if got := counterTotal(after, "hopi_serve_queries_total", "", ""); got < 12 {
		t.Errorf("hopi_serve_queries_total = %v after 12 queries", got)
	}
	if counterTotal(after, "hopi_serve_prepared_cache_hits_total", "", "") < 2 {
		t.Errorf("repeated expr did not hit the prepared cache: %v",
			after["hopi_serve_prepared_cache_hits_total"].Samples)
	}
	// the author sits under its article: the tree answers every query
	if got := counterTotal(after, "hopi_query_label_entries_total", "", ""); got != 0 {
		t.Errorf("hopi_query_label_entries_total = %v after tree-answered queries, want 0", got)
	}
}

// TestRouterShardMetricsAgree cross-checks the two ends of the RPC
// accounting: after cross-shard queries over real HTTP, the router's
// own counters must equal the sum over shards of hopi_shard_rpcs_total
// read back from each shard's /metrics.
func TestRouterShardMetricsAgree(t *testing.T) {
	ctx := context.Background()
	conns := make([]hopi.ShardConn, 2)
	urls := make([]string, 2)
	for i := range conns {
		coll, err := hopi.ParseCollection(map[string][]byte{})
		if err != nil {
			t.Fatal(err)
		}
		opts := hopi.DefaultOptions()
		opts.WithDistance = true
		ix, err := hopi.Build(coll, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newServer(ix, 0))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		conns[i] = shardrouter.NewHTTPShard(srv.URL, 5*time.Second)
	}
	router, err := hopi.NewRouter(conns, shardrouter.NewShardMap(2), "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		xml := `<article><title>t</title><author/></article>`
		if i > 0 {
			xml = fmt.Sprintf(`<article><title>t</title><author/><cite href="pub%d.xml"/></article>`, i-1)
		}
		if _, err := router.InsertXML(ctx, fmt.Sprintf("pub%d.xml", i), []byte(xml)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := router.Query(ctx, "//article//author", hopi.RouterQueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	var stepServed, deliverServed, closureServed float64
	for _, u := range urls {
		fams := scrape(t, u)
		stepServed += counterTotal(fams, "hopi_shard_rpcs_total", "rpc", "step")
		deliverServed += counterTotal(fams, "hopi_shard_rpcs_total", "rpc", "deliver")
		closureServed += counterTotal(fams, "hopi_shard_rpcs_total", "rpc", "closure")
	}
	c := router.Unwrap().Counters()
	if stepServed != float64(c.StepRPCs) {
		t.Errorf("step RPCs: shards served %v, router issued %d", stepServed, c.StepRPCs)
	}
	if deliverServed != float64(c.DeliverRPCs) {
		t.Errorf("deliver RPCs: shards served %v, router issued %d", deliverServed, c.DeliverRPCs)
	}
	if closureServed != float64(c.ClosureRPCs) {
		t.Errorf("closure RPCs: shards served %v, router issued %d", closureServed, c.ClosureRPCs)
	}
	// Only the first of the identical queries met a new cut.
	if c.ClosureCacheMisses != 1 || c.ClosureCacheHits != 2 {
		t.Errorf("endpoint graph: %d misses, %d hits; want 1 and 2", c.ClosureCacheMisses, c.ClosureCacheHits)
	}

	// The router's own registry must agree with the same counters and
	// parse just as strictly when mounted (newRouterServer mounts it).
	rsrv := httptest.NewServer(newRouterServerForTest(router))
	defer rsrv.Close()
	rfams := scrape(t, rsrv.URL)
	if got := counterTotal(rfams, "hopi_router_shard_rpcs_total", "rpc", "step"); got != float64(c.StepRPCs) {
		t.Errorf("hopi_router_shard_rpcs_total{rpc=step} = %v, want %d", got, c.StepRPCs)
	}
	if got := counterTotal(rfams, "hopi_router_queries_total", "", ""); got != 3 {
		t.Errorf("hopi_router_queries_total = %v, want 3", got)
	}
}

// newRouterServerForTest mounts only the router's metrics registry —
// the piece of cmd/hopirouter's mux this package can exercise without
// importing package main of another command.
func newRouterServerForTest(r *hopi.Router) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obshttp.MetricsHandler(r.Unwrap().Metrics()))
	return mux
}
