// Command hopiserve exposes a HOPI index as an HTTP JSON query
// service — the XML search-engine deployment the paper positions the
// index for (§1, §3.4). Queries are served from immutable snapshots
// and keep running while documents are inserted and deleted; writes
// are applied as serialized batches.
//
// Start against a saved index, with a generated citation collection,
// or — the durable deployment — attached to an on-disk store that is
// maintained in place and survives crashes:
//
//	hopiserve -index dblp.hopi
//	hopiserve -docs 500 -distance
//	hopiserve -store dblp.hopi              # create or reopen; WAL-backed writes
//	hopiserve -store dblp.hopi -checkpoint 10s
//	hopiserve -replica-of http://primary:8080 -addr :8081
//	hopiserve -replica-of http://primary:8080 -store replica/   # persistent replica
//
// With -store, every maintenance batch is committed to the write-ahead
// log before the HTTP response is sent; kill the process at any point,
// restart it on the same path, and every acknowledged write is still
// there. The store is checkpointed periodically (-checkpoint) and on
// graceful shutdown. A -store server is also a replication primary: it
// streams its committed batches at GET /repl/stream, and any number of
// -replica-of servers bootstrap from its state image, log and replay
// the stream into a durable store of their own, and serve the read
// endpoints against their latest replayed snapshot (writes there fail
// 403 — send them to the primary). A replica keeps that store in the
// directory -store names (else in a temporary directory removed on
// shutdown); restarted on it, even after kill -9, it resumes the stream
// after its last logged batch without a new image. /stats reports each
// server's role, applied sequence, and replication lag.
//
// API:
//
//	GET    /query?expr=//article//author&limit=10&ranked=1
//	GET    /query?expr=...&pageToken=...  (continue a page sequence)
//	GET    /query/stream?expr=...         (NDJSON, one result per line)
//	GET    /watch?expr=...&resume=EPOCH   (NDJSON live query: init frame, then deltas)
//	GET    /explain?expr=...&limit=10     (per-step execution plan)
//	GET    /reach?from=pub00005.xml&to=pub00002.xml&distance=1
//	GET    /stats
//	GET    /repl/stream?from=N&scope=S   (log shipping: the WAL's CRC-framed records)
//	POST   /docs?name=new.xml            (body: the XML document)
//	DELETE /docs/{name}
//	POST   /links                        {"from":"a.xml:3","to":"b.xml"}
//	GET    /healthz
//
// Query responses carry count and, when the limit cut the result set
// short, nextPageToken. Expressions are compiled once into an LRU
// prepared-statement cache; limited queries stop evaluating once the
// page is full (limit pushdown). Page tokens are bound to the snapshot
// epoch: after any write they are rejected as stale (400) and the page
// sequence restarts. On durable primaries and replicas the epoch is
// the durable batch sequence, so a token issued by one replica resumes
// on any other; a replica that has not yet applied the token's batch
// answers 503 with Retry-After instead — retry the same token there.
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
		readyLag   = flag.Int("ready-max-lag", defaultReadyMaxLag, "replica lag ceiling (batches) for /readyz; beyond it the node reports unready")
		segThresh  = flag.Int("segment-threshold", 0, "with -store: in-memory delta entries at which a write seals a new segment (0 uses the built-in default, <0 disables auto-sealing)")
		segMax     = flag.Int("max-segments", 0, "with -store: sealed stack size that triggers background compaction (0 uses the built-in default)")
		watchHB    = flag.Duration("watch-heartbeat", defaultWatchHeartbeat, "idle heartbeat interval on /watch streams")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (\":6060\" binds loopback only); empty disables")
		accessLog  = flag.Bool("access-log", false, "log one structured line per HTTP request (method, path, status, duration, bytes, trace ID)")
	)
	flag.Parse()
	if *index != "" && *store != "" {
		log.Fatal("hopiserve: -index and -store are mutually exclusive (use -store to serve a saved index durably)")
	}
	if *replicaOf != "" && *index != "" {
		log.Fatal("hopiserve: -replica-of and -index are mutually exclusive")
	}

	var segOpts []hopi.OpenOption
	if *segThresh != 0 {
		segOpts = append(segOpts, hopi.SegmentThreshold(*segThresh))
	}
	if *segMax > 0 {
		segOpts = append(segOpts, hopi.SegmentMaxStack(*segMax))
	}

	ix, err := loadIndex(*index, *store, *replicaOf, *docs, *seed, *distance, segOpts)
	if err != nil {
		log.Fatalf("hopiserve: %v", err)
	}
	snap := ix.Snapshot()
	coll := snap.Collection()
	log.Printf("serving %d docs, %d elements, %d links, %d label entries on %s",
		coll.NumDocs(), coll.NumElements(), coll.NumLinks(), snap.Size(), *addr)

	h := newServer(ix, *maxLimit)
	h.readyMaxLag = *readyLag
	if *watchHB > 0 {
		h.watchHB = *watchHB
	}
	if h.pub != nil {
		log.Printf("replication: publishing committed batches at GET /repl/stream (last seq %d)", h.pub.LastSeq())
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

	if ix.Durable() && *checkpoint > 0 {
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
		if err := ix.Close(); err != nil {
			log.Fatalf("hopiserve: close store: %v", err)
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
