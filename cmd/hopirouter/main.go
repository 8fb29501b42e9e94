// Command hopirouter is the distributed query tier over sharded
// hopiserve primaries: it owns the document→shard map, routes writes
// to the owning shard, fans descendant-axis queries out to every shard
// concurrently, and joins cross-shard paths at the serving tier with a
// semijoin over the shipped frontier centers — the serving-tier
// analogue of the paper's partition skeleton graph (§4). Answers are
// byte-identical to a single unsharded index over the union of the
// shards' documents, including ranked scores and cyclic self-matches.
//
//	hopirouter -shards http://shard0:8080,http://shard1:8080 -map shardmap.json
//
// The shard map is loaded from -map when the file exists; otherwise
// the router starts with an empty map for the given shard count and
// persists every mutation there atomically, so a restart resumes the
// same assignment. Shards are plain hopiserve primaries (typically
// -store durable ones); they need no router-specific configuration.
//
// API (mirrors hopiserve where the operations coincide):
//
//	GET    /query?expr=//article//author&limit=10&ranked=1
//	GET    /query?expr=...&pageToken=...  (vector resume token)
//	GET    /query/stream?expr=...&pageSize=256  (NDJSON, one result per line,
//	       shard cursor pages forwarded incrementally; resumes via pageToken)
//	GET    /stats                         (the router's own metric families as JSON)
//	GET    /metrics                       (the same families as Prometheus text)
//	GET    /healthz                       (process liveness)
//	GET    /readyz                        (every shard reachable and ready, per shard)
//	POST   /docs?name=new.xml             (routed to the least-loaded shard)
//	DELETE /docs/{name}
//	POST   /links                         {"from":"a.xml:3","to":"b.xml"}
//	DELETE /links
//
// Page tokens are vectors — one {scope, epoch} per shard plus the map
// version. A write to any shard retires them: the router answers 400
// for a definitively stale token and 503 with Retry-After when a
// lagging shard will accept the token once caught up (same contract as
// hopiserve replicas). A shard that is down or restarting also answers
// 503 with Retry-After; clients retry against the router with capped
// backoff.
package main

import (
	"context"
	"errors"
	"flag"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hopi"
	"hopi/internal/obshttp"
	"hopi/internal/shardrouter"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address")
		shards        = flag.String("shards", "", "comma-separated shard base URLs (http://host:port), one hopiserve primary each")
		mapPath       = flag.String("map", "", "shard map path: load if present, else start empty; every mutation is persisted here")
		shardTimeout  = flag.Duration("shard-timeout", 30*time.Second, "per-shard RPC timeout")
		timeout       = flag.Duration("timeout", 0, "deprecated alias for -shard-timeout (overrides it when set)")
		breakerWindow = flag.Duration("breaker-window", 250*time.Millisecond, "how long a shard's circuit breaker stays open after a transport failure")
		maxLimit      = flag.Int("max-limit", defaultMaxLimit, "ceiling for the query limit parameter")
		slowQueryMs   = flag.Int("slow-query-ms", -1, "log a span tree for queries at least this slow (0 logs every query; negative disables)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (\":6060\" binds loopback only); empty disables")
		accessLog     = flag.Bool("access-log", false, "log one structured line per HTTP request (method, path, status, duration, bytes, trace ID)")
	)
	flag.Parse()
	if *shards == "" {
		log.Fatal("hopirouter: -shards is required")
	}
	rpcTimeout := *shardTimeout
	if *timeout > 0 {
		rpcTimeout = *timeout
	}
	urls := strings.Split(*shards, ",")
	conns := make([]hopi.ShardConn, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		conns = append(conns, shardrouter.NewHTTPShard(u, rpcTimeout))
	}
	if len(conns) == 0 {
		log.Fatal("hopirouter: -shards named no shard URLs")
	}

	m, err := loadOrInitMap(*mapPath, len(conns))
	if err != nil {
		log.Fatalf("hopirouter: %v", err)
	}
	if m.NumShards != len(conns) {
		log.Fatalf("hopirouter: map %s is for %d shards, -shards names %d", *mapPath, m.NumShards, len(conns))
	}
	opts := []hopi.RouterOption{hopi.RouterBreakerWindow(*breakerWindow)}
	if *slowQueryMs >= 0 {
		opts = append(opts, hopi.RouterSlowQueryLog(
			time.Duration(*slowQueryMs)*time.Millisecond,
			func(tr *hopi.RouterQueryTrace) { log.Print(tr.Format()) },
		))
	}
	router, err := hopi.NewRouter(conns, m, *mapPath, opts...)
	if err != nil {
		log.Fatalf("hopirouter: %v", err)
	}
	log.Printf("routing %d docs, %d cross links over %d shards on %s",
		len(m.Docs), len(m.CrossLinks), m.NumShards, *addr)

	var handler http.Handler = newRouterServer(router, *maxLimit)
	if *accessLog {
		handler = obshttp.AccessLog(log.Default(), handler)
	}
	if *pprofAddr != "" {
		bound, err := obshttp.ServePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("hopirouter: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", bound)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("hopirouter: %v", err)
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("hopirouter: shutdown: %v", err)
		}
	}
}

func loadOrInitMap(path string, numShards int) (*hopi.ShardMap, error) {
	if path != "" {
		m, err := hopi.LoadShardMap(path)
		switch {
		case err == nil:
			log.Printf("loaded shard map %s (version %d)", path, m.Version)
			return m, nil
		case !errors.Is(err, fs.ErrNotExist):
			return nil, err
		}
		log.Printf("no shard map at %s; starting empty for %d shards", path, numShards)
	}
	return shardrouter.NewShardMap(numShards), nil
}
