// Command hopiserve exposes a HOPI index as an HTTP JSON query
// service — the XML search-engine deployment the paper positions the
// index for (§1, §3.4) — or, in router mode, a router over sharded
// hopiserve primaries behind the same routes. Queries are served from
// immutable snapshots and keep running while documents are inserted
// and deleted; writes are applied as serialized batches.
//
//	hopiserve -index dblp.hopi              # a saved index (read-only)
//	hopiserve -docs 500 -distance           # a generated citation collection
//	hopiserve -store dblp.hopi              # create or reopen; WAL-backed writes
//	hopiserve -replica-of http://primary:8080 -addr :8081 [-store replica/]
//	hopiserve -shards http://s0:8080,http://s1:8080 -map shardmap.json
//
// With -store, every batch is committed to the write-ahead log before
// the response is sent, so every acknowledged write survives kill -9;
// the store is checkpointed every -checkpoint and on shutdown. A -store
// server is also a replication primary: -replica-of servers bootstrap
// from its image, log and replay its GET /repl/stream into a durable
// store of their own (the -store directory, else a temporary one),
// resume from it after a restart, and serve reads (writes fail 403).
//
// With -shards, hopiserve builds no collection: it owns the
// document→shard map (loaded from -map, or started empty and persisted
// there on every mutation), routes writes to the owning shard, and
// answers descendant-axis queries by fanning out to every shard and
// joining cross-shard paths with a semijoin over the shipped frontier
// centers — the serving-tier analogue of the paper's partition
// skeleton graph (§4). Answers are byte-identical to one unsharded
// index over the same documents, ranked scores included. Shards are
// plain hopiserve primaries (typically -store ones). A down shard
// answers 503 with Retry-After.
//
// API (* only over an index; the shard RPCs under /shard/* too):
//
//	GET    /query?expr=//article//author&limit=10&ranked=1
//	GET    /query?expr=...&pageToken=...   (continue a page sequence)
//	GET    /query/stream?expr=...&pageSize=256  (NDJSON, one result per line)
//	GET    /watch?expr=...&resume=EPOCH  * (NDJSON live query: init frame, then deltas)
//	GET    /explain?expr=...&limit=10    * (per-step execution plan)
//	GET    /reach?from=a.xml&to=b.xml&distance=1 *
//	GET    /repl/stream?from=N&scope=S   * (log shipping: the WAL's CRC-framed records)
//	GET    /stats, /metrics                (one registry: the index's, or the router's hopi_router_*)
//	GET    /healthz, /readyz               (/readyz lists every shard in router mode)
//	POST   /docs?name=new.xml              (body: the XML document; 413 over 16 MiB)
//	DELETE /docs/{name}
//	POST   /links, DELETE /links           {"from":"a.xml:3","to":"b.xml"}
//
// A result row is {doc, local, tag, score} in both modes. /query
// answers limit rows (default 100), a stream up to limit rows (default
// -max-limit), and both hand out nextPageToken when results remain.
// limit and pageSize must be positive and are clamped to -max-limit.
// Expressions are compiled once into an LRU prepared-statement cache;
// limited queries stop evaluating once the page is full. A page token
// is bound to the snapshot epoch (a router's to every shard's): after
// any write it is rejected as stale (400) and the page sequence
// restarts. On durable primaries and replicas the epoch is the batch
// sequence, so a token resumes on any replica; one that has not yet
// applied the token's batch, or a lagging shard, answers 503 with
// Retry-After — retry the same token. Errors are {error, retryable}.
//
// Element addresses use the cmd-tool syntax: "doc.xml",
// "doc.xml:localIndex", or "doc.xml#anchor".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hopi"
	"hopi/internal/gen"
	"hopi/internal/obshttp"
	"hopi/internal/shardrouter"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		index      = flag.String("index", "", "saved index path (from hopibuild); empty generates a collection")
		store      = flag.String("store", "", "durable store path: reopen if present (replaying any WAL tail), else create; writes are WAL-committed before they are acknowledged. With -replica-of: the directory that keeps the replica's store across restarts")
		replicaOf  = flag.String("replica-of", "", "primary base URL (e.g. http://primary:8080): serve a read-only replica fed by its replication stream")
		checkpoint = flag.Duration("checkpoint", 30*time.Second, "with -store: interval between background checkpoints (0 disables)")
		docs       = flag.Int("docs", 500, "generated DBLP-like document count (when no -index)")
		seed       = flag.Int64("seed", 42, "generator seed")
		distance   = flag.Bool("distance", true, "build a distance-aware index (enables ranked queries)")
		maxLimit   = flag.Int("max-limit", defaultMaxLimit, "server-side ceiling for the query limit parameter (limit<=0 is rejected)")
		readyLag   = flag.Int("ready-max-lag", hopi.DefaultReadyMaxLag, "replica lag ceiling (batches) for /readyz; beyond it the node reports unready")
		segThresh  = flag.Int("segment-threshold", 0, "with -store: in-memory delta entries at which a write seals a new segment (0 uses the built-in default, <0 disables auto-sealing)")
		segMax     = flag.Int("max-segments", 0, "with -store: sealed stack size that triggers background compaction (0 uses the built-in default)")
		watchHB    = flag.Duration("watch-heartbeat", defaultWatchHeartbeat, "idle heartbeat interval on /watch streams")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (\":6060\" binds loopback only); empty disables")
		accessLog  = flag.Bool("access-log", false, "log one structured line per HTTP request (method, path, status, duration, bytes, trace ID)")

		// router mode
		shards        = flag.String("shards", "", "comma-separated shard base URLs (http://host:port), one hopiserve primary each: serve a router over them instead of an index")
		mapPath       = flag.String("map", "", "with -shards: shard map path; load if present, else start empty; every mutation is persisted here")
		shardTimeout  = flag.Duration("shard-timeout", 30*time.Second, "with -shards: per-shard RPC timeout")
		breakerWindow = flag.Duration("breaker-window", 250*time.Millisecond, "with -shards: how long a shard's circuit breaker stays open after a transport failure")
		slowQueryMs   = flag.Int("slow-query-ms", -1, "with -shards: log a span tree for queries at least this slow (0 logs every query; negative disables)")
	)
	flag.Parse()
	switch {
	case *shards != "" && (*index != "" || *store != "" || *replicaOf != ""):
		log.Fatal("hopiserve: -shards serves a router and takes no -index, -store or -replica-of")
	case *index != "" && (*store != "" || *replicaOf != ""):
		log.Fatal("hopiserve: -index takes no -store or -replica-of (use -store to serve a saved index durably)")
	}

	var (
		ix *hopi.Index
		h  *server
	)
	if *shards != "" {
		router, err := loadRouter(*shards, *mapPath, *shardTimeout, *breakerWindow, *slowQueryMs)
		if err != nil {
			log.Fatalf("hopiserve: %v", err)
		}
		h = newRouterServer(router, *maxLimit)
	} else {
		var segOpts []hopi.OpenOption
		if *segThresh != 0 {
			segOpts = append(segOpts, hopi.SegmentThreshold(*segThresh))
		}
		if *segMax > 0 {
			segOpts = append(segOpts, hopi.SegmentMaxStack(*segMax))
		}
		var err error
		if ix, err = loadIndex(*index, *store, *replicaOf, *docs, *seed, *distance, segOpts); err != nil {
			log.Fatalf("hopiserve: %v", err)
		}
		snap := ix.Snapshot()
		coll := snap.Collection()
		log.Printf("serving %d docs, %d elements, %d links, %d label entries on %s",
			coll.NumDocs(), coll.NumElements(), coll.NumLinks(), snap.Size(), *addr)
		h = newServer(ix, *maxLimit)
		h.readyMaxLag = uint64(*readyLag)
		if h.pub != nil {
			log.Printf("replication: publishing committed batches at GET /repl/stream (last seq %d)", h.pub.LastSeq())
		}
	}
	if *watchHB > 0 {
		h.watchHB = *watchHB
	}
	var handler http.Handler = h
	if *accessLog {
		handler = obshttp.AccessLog(log.Default(), handler)
	}
	if *pprofAddr != "" {
		bound, err := obshttp.ServePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("hopiserve: %v", err)
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

	if ix != nil && ix.Durable() && *checkpoint > 0 {
		go checkpointLoop(ctx, ix, *checkpoint)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatalf("hopiserve: %v", err)
	case <-ctx.Done():
		log.Print("shutting down")
		// end the long-lived streams first — watch/NDJSON streams get a
		// terminal frame and a bounded drain, replication streams are
		// cut — or the graceful shutdown below would wait out its whole
		// timeout on them
		h.beginShutdown(5 * time.Second)
		h.closeRepl()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatalf("hopiserve: shutdown: %v", err)
		}
		// flush the store: checkpoint and detach so the next start
		// needs no WAL replay (on a replica this just stops the stream)
		if ix != nil {
			if err := ix.Close(); err != nil {
				log.Fatalf("hopiserve: close store: %v", err)
			}
		}
	}
}

// checkpointLoop folds the WAL into the store in the background so
// recovery stays short and the log stays small.
func checkpointLoop(ctx context.Context, ix *hopi.Index, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			walBytes, seq, _ := ix.WALSize()
			if err := ix.Checkpoint(); err != nil {
				log.Printf("checkpoint failed: %v", err)
				return
			}
			if walBytes > 0 {
				log.Printf("checkpoint: folded %d WAL bytes (through batch %d)", walBytes, seq)
			}
		}
	}
}

// loadRouter connects to the shard primaries under the shard map at
// mapPath, or an empty one that every mutation is then persisted to.
func loadRouter(shards, mapPath string, timeout, breakerWindow time.Duration, slowQueryMs int) (*hopi.Router, error) {
	var conns []hopi.ShardConn
	for _, u := range strings.Split(shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			conns = append(conns, shardrouter.NewHTTPShard(u, timeout))
		}
	}
	if len(conns) == 0 {
		return nil, fmt.Errorf("-shards named no shard URLs")
	}
	m := shardrouter.NewShardMap(len(conns))
	if mapPath != "" {
		loaded, err := hopi.LoadShardMap(mapPath)
		switch {
		case err == nil:
			log.Printf("loaded shard map %s (version %d)", mapPath, loaded.Version)
			m = loaded
		case errors.Is(err, fs.ErrNotExist):
			log.Printf("no shard map at %s; starting empty for %d shards", mapPath, len(conns))
		default:
			return nil, err
		}
	}
	if m.NumShards != len(conns) {
		return nil, fmt.Errorf("map %s is for %d shards, -shards names %d", mapPath, m.NumShards, len(conns))
	}
	log.Printf("routing %d docs, %d cross links over %d shards", len(m.Docs), len(m.CrossLinks), m.NumShards)
	opts := []hopi.RouterOption{hopi.RouterBreakerWindow(breakerWindow)}
	if slowQueryMs >= 0 {
		opts = append(opts, hopi.RouterSlowQueryLog(
			time.Duration(slowQueryMs)*time.Millisecond,
			func(tr *hopi.RouterQueryTrace) { log.Print(tr.Format()) },
		))
	}
	return hopi.NewRouter(conns, m, mapPath, opts...)
}

func loadIndex(path, store, replicaOf string, docs int, seed int64, distance bool, segOpts []hopi.OpenOption) (*hopi.Index, error) {
	if replicaOf != "" {
		url := strings.TrimSuffix(replicaOf, "/") + "/repl/stream"
		log.Printf("following primary at %s", url)
		var opts []hopi.FollowOption
		if store != "" {
			opts = append(opts, hopi.FollowDir(store))
		}
		ix, err := hopi.Follow(url, opts...)
		if err != nil {
			return nil, err
		}
		st := ix.ReplicaStatus()
		log.Printf("replica ready at seq %d (primary at %d)", st.AppliedSeq, st.PrimarySeq)
		return ix, nil
	}
	if path != "" {
		log.Printf("opening index %s", path)
		return hopi.Open(path)
	}
	if store != "" {
		// nothing lives at the path itself (the store is its .segs, .coll
		// and .wal siblings); the collection sidecar is written last by
		// Create, so its presence marks a completely created store
		_, err := os.Stat(store + ".coll")
		switch {
		case err == nil:
			log.Printf("reopening durable store %s", store)
			ix, err := hopi.Open(store, append([]hopi.OpenOption{hopi.Durable()}, segOpts...)...)
			if err != nil {
				return nil, err
			}
			_, seq, _ := ix.WALSize()
			log.Printf("recovered through batch %d", seq)
			return ix, nil
		case !errors.Is(err, fs.ErrNotExist):
			// anything but "not there" must not fall through to Create,
			// which would truncate an existing store
			return nil, fmt.Errorf("stat store %s: %w", store, err)
		}
	}
	log.Printf("generating DBLP-like collection (%d docs, seed %d)", docs, seed)
	coll := hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(docs, seed)))
	opts := hopi.DefaultOptions()
	opts.WithDistance = distance
	opts.Seed = seed
	if store != "" {
		log.Printf("creating durable store %s", store)
		ix, err := hopi.Create(store, coll, opts, segOpts...)
		if err != nil {
			return nil, fmt.Errorf("create store: %w", err)
		}
		return ix, nil
	}
	ix, err := hopi.Build(coll, opts)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return ix, nil
}
