package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hopi"
	"hopi/internal/obs"
	"hopi/internal/obshttp"
	"hopi/internal/shardrouter"
)

// maxDocBytes bounds the size of a posted XML document.
const maxDocBytes = 16 << 20

// defaultQueryLimit is /query's row count when limit is omitted;
// defaultMaxLimit is the ceiling limit and pageSize are clamped to
// (-max-limit) and the length of a stream without a limit, so no client
// pulls the unbounded result set; defaultPageSize is the rows per flush
// of a stream (per shard round in router mode).
const (
	defaultQueryLimit = 100
	defaultMaxLimit   = 1000
	defaultPageSize   = 256
)

// server is the HTTP API over a backend: an index (newServer) or a
// router over shard primaries (newRouterServer). The routes both modes
// serve have one handler each, and with it one result row, one
// error→status map, one limit/pageSize rule, one body-size check and
// one stream shutdown path. An index also mounts the routes a router
// has no counterpart for: /watch, /explain, /reach, the shard RPCs
// under /shard/* and, on a durable primary, GET /repl/stream.
type server struct {
	b        backend
	maxLimit int
	mux      *http.ServeMux

	// indexBackend is nil in router mode; the index-only routes read
	// their index, statement cache and readiness ceiling through it.
	*indexBackend
	pub *hopi.Publisher // log-shipping publisher, nil unless a durable primary

	// shard is the in-process shard adapter behind the /shard/*
	// endpoints.
	shard shardrouter.Conn

	// Long-lived NDJSON streams (/watch, /query/stream) register in
	// streams; beginShutdown cancels closing with errShuttingDown, which
	// cancels their contexts so each can write a terminal frame and exit
	// before the HTTP server's graceful drain starts.
	closing    context.Context
	stopStream context.CancelCauseFunc
	streams    sync.WaitGroup
	watchHB    time.Duration // heartbeat interval on idle /watch streams

	queries  atomic.Uint64 // /query + /query/stream requests answered 200
	streamed atomic.Uint64 // results written across both query endpoints

	// shardRPCs counts /shard/* requests by RPC kind (the shard-side
	// mirror of the router's hopi_router_shard_rpcs_total).
	shardRPCs *obs.CounterVec
}

// newHandler mounts the routes both modes serve over b. maxLimit caps
// the per-query result count (0 picks the default).
func newHandler(b backend, maxLimit int) *server {
	if maxLimit <= 0 {
		maxLimit = defaultMaxLimit
	}
	s := &server{b: b, maxLimit: maxLimit, watchHB: defaultWatchHeartbeat}
	s.closing, s.stopStream = context.WithCancelCause(context.Background())
	// /metrics (text) and /stats (JSON) serve the backend's registry
	s.mux = http.NewServeMux()
	s.mux.Handle("GET /metrics", obshttp.MetricsHandler(b.metrics()))
	s.mux.Handle("GET /stats", obshttp.StatsHandler(b.metrics()))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /query/stream", s.handleQueryStream)
	s.mux.HandleFunc("POST /docs", s.handleInsertDoc)
	s.mux.HandleFunc("DELETE /docs/{name}", s.handleDeleteDoc)
	s.mux.HandleFunc("POST /links", s.handleLink(true))
	s.mux.HandleFunc("DELETE /links", s.handleLink(false))
	return s
}

// newRouterServer serves a router: the shared routes only, with the
// router's own hopi_router_* registry on /metrics and /stats (the
// shards' numbers are on each shard's /metrics).
func newRouterServer(r *hopi.Router, maxLimit int) *server {
	return newHandler(routerBackend{r}, maxLimit)
}

// newServer serves an index: the shared routes plus the index-only
// ones. Its /metrics and /stats carry the index's families (sizes and
// identity, query latency by mode, WAL append/fsync, maintenance,
// replication, segments, watch) plus the serving layer's own. A
// durable primary gets a replication publisher at GET /repl/stream.
func newServer(ix *hopi.Index, maxLimit int) *server {
	ib := &indexBackend{
		ix: ix, cache: newStmtCache(defaultCacheSize),
		readyMaxLag: hopi.DefaultReadyMaxLag, reg: obs.NewRegistry(),
	}
	s := newHandler(ib, maxLimit)
	s.indexBackend, s.shard = ib, hopi.NewLocalShard("self", ix)
	s.reg.AddSub(ix.Metrics())
	s.reg.CounterFunc("hopi_serve_queries_total",
		"Query requests answered 200 across /query and /query/stream.",
		func() float64 { return float64(s.queries.Load()) })
	s.reg.CounterFunc("hopi_serve_results_streamed_total",
		"Result rows written across both query endpoints.",
		func() float64 { return float64(s.streamed.Load()) })
	s.reg.CounterFunc("hopi_serve_prepared_cache_hits_total",
		"Prepared-statement cache hits.",
		func() float64 { return float64(s.cache.hits.Load()) })
	s.reg.CounterFunc("hopi_serve_prepared_cache_misses_total",
		"Prepared-statement cache misses (each compiles the expression).",
		func() float64 { return float64(s.cache.misses.Load()) })
	s.reg.GaugeFunc("hopi_serve_prepared_cache_entries",
		"Prepared statements currently cached.",
		func() float64 { return float64(s.cache.len()) })
	s.reg.GaugeFunc("hopi_serve_ready",
		"Whether GET /readyz answers 200 (1/0): a replica is unready while disconnected or beyond -ready-max-lag.",
		func() float64 {
			if ok, _ := ib.ready(context.Background()); ok {
				return 1
			}
			return 0
		})
	s.shardRPCs = s.reg.CounterVec("hopi_shard_rpcs_total",
		"Shard RPCs served on /shard/*, by RPC kind.", "rpc")

	s.mux.HandleFunc("GET /watch", s.handleWatch)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("GET /reach", s.handleReach)
	s.mux.HandleFunc("POST /shard/step", s.handleShardStep)
	s.mux.HandleFunc("POST /shard/deliver", s.handleShardDeliver)
	s.mux.HandleFunc("POST /shard/closure", s.handleShardClosure)
	s.mux.HandleFunc("POST /shard/resolve", s.handleShardResolve)
	if ix.Durable() && ix.ReplicaStatus().Role != "replica" {
		pub, err := ix.StartPublisher()
		if err != nil {
			// A durable server without its replication endpoint violates
			// the documented -store contract; say so instead of serving
			// mysterious 404s on /repl/stream.
			log.Printf("hopiserve: replication publisher unavailable: %v", err)
		} else {
			s.pub = pub
			s.mux.Handle("GET /repl/stream", pub)
		}
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// closeRepl terminates follower streams before the HTTP server's
// graceful shutdown, which would otherwise wait out its whole timeout
// on the long-lived stream requests.
func (s *server) closeRepl() {
	if s.pub != nil {
		s.pub.Close()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the JSON body of every error answer, and the last line
// of a stream that does not drain to exhaustion: the token to continue
// from, with the error that cut the stream short, if any.
type errorBody struct {
	Error         string `json:"error,omitempty"`
	Retryable     bool   `json:"retryable,omitempty"`
	NextPageToken string `json:"nextPageToken,omitempty"`
}

// errShuttingDown refuses new streams and ends open ones once
// beginShutdown has started.
var errShuttingDown = errors.New("server shutting down")

// statusFor maps an error to its HTTP status by the hopi sentinels and
// types, never by error text. A down shard, a token a lagging replica
// or shard will accept once caught up, and shutdown are 503: the client
// re-sends the same request. A stale or malformed token is 400: the
// client restarts the page sequence. Name collisions are 409, unknown
// names 404, writes to a read replica 403.
func statusFor(err error) (code int, retryable bool) {
	var (
		stale   *hopi.StaleTokenError
		unavail *shardrouter.ShardUnavailableError
	)
	switch {
	case errors.As(err, &unavail), errors.As(err, &stale) && stale.Retryable, errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable, true
	case errors.Is(err, hopi.ErrExists):
		return http.StatusConflict, false
	case errors.Is(err, hopi.ErrNotFound):
		return http.StatusNotFound, false
	case errors.Is(err, hopi.ErrReadOnlyReplica):
		return http.StatusForbidden, false
	}
	return http.StatusBadRequest, false
}

// writeErr answers err with statusFor's code, and Retry-After on the
// retryable ones.
func writeErr(w http.ResponseWriter, err error) {
	code, retryable := statusFor(err)
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: err.Error(), Retryable: retryable})
}

// handleReadyz answers 200 only when the backend can serve complete,
// fresh answers, with the backend's own account of why (or why not).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ok, body := s.b.ready(r.Context())
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

type queryResponse struct {
	Expr          string        `json:"expr"`
	Count         int           `json:"count"`
	ElapsedMicros int64         `json:"elapsedMicros"`
	Results       []queryResult `json:"results"`
	// NextPageToken, present only when results remain, is passed back
	// as pageToken to continue the result set.
	NextPageToken string `json:"nextPageToken,omitempty"`
	// Epoch is the snapshot epoch the page was served from; absent in
	// router mode, whose token holds one epoch per shard.
	Epoch *uint64 `json:"epoch,omitempty"`
}

// queryResult is the one result row of /query, /query/stream and
// /watch in both modes: the element as its document and its index in
// that document, as "doc.xml:local" addresses it.
type queryResult struct {
	Doc   string  `json:"doc"`
	Local int32   `json:"local"`
	Tag   string  `json:"tag"`
	Score float64 `json:"score,omitempty"`
}

// queryParams are a query request's parameters.
type queryParams struct {
	expr, resume, trace string
	ranked              bool
	limit               int // rows to answer at most
	page                int // rows per emitted batch (per shard round in router mode)
}

// positiveParam applies the one parameter rule of limit and pageSize:
// positive integers only, clamped to the -max-limit ceiling; omitted
// picks def (also clamped).
func (s *server) positiveParam(r *http.Request, name string, def int) (int, error) {
	n := def
	if v := r.URL.Query().Get(name); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n <= 0 {
			return 0, fmt.Errorf("bad %s %q: must be a positive integer", name, v)
		}
	}
	return min(n, s.maxLimit), nil
}

// parseQuery reads a query request; limit defaults to defLimit. An
// inbound X-Hopi-Trace rides into a router's distributed trace, so a
// client-chosen ID correlates the access log, the slow-query span tree
// and every shard's own access log.
func (s *server) parseQuery(r *http.Request, defLimit int) (*queryParams, error) {
	q := r.URL.Query()
	p := &queryParams{expr: q.Get("expr"), resume: q.Get("pageToken"),
		trace: r.Header.Get(shardrouter.TraceHeader), ranked: boolParam(r, "ranked")}
	if p.expr == "" {
		return nil, fmt.Errorf("missing expr parameter")
	}
	var err error
	if p.limit, err = s.positiveParam(r, "limit", defLimit); err != nil {
		return nil, err
	}
	if p.page, err = s.positiveParam(r, "pageSize", defaultPageSize); err != nil {
		return nil, err
	}
	return p, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseQuery(r, defaultQueryLimit)
	if err != nil {
		writeErr(w, err)
		return
	}
	p.page = p.limit
	start := time.Now()
	out := queryResponse{Expr: p.expr, Results: []queryResult{}}
	next, epoch, err := s.b.query(r.Context(), p, func(rows []queryResult) error {
		out.Results = append(out.Results, rows...)
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	out.Count, out.NextPageToken, out.Epoch = len(out.Results), next, epoch
	out.ElapsedMicros = time.Since(start).Microseconds()
	s.queries.Add(1)
	s.streamed.Add(uint64(out.Count))
	writeJSON(w, http.StatusOK, out)
}

// handleQueryStream answers a query as NDJSON, one result row per
// line, flushed a pageSize batch (in router mode, a cross-shard round)
// at a time. It stops at limit (default -max-limit) and, when results
// remain, ends with a token line. The first batch is produced before
// the 200 is committed, so a parse error, a bad token or a down shard
// still gets a real status; a later failure, shutdown included, ends
// the stream with an error line.
func (s *server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseQuery(r, s.maxLimit)
	if err != nil {
		writeErr(w, err)
		return
	}
	ctx, done := s.streamContext(r)
	defer done()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	n, started := 0, false
	next, _, err := s.b.query(ctx, p, func(rows []queryResult) error {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		for i := range rows {
			enc.Encode(&rows[i])
		}
		n += len(rows)
		if flusher != nil {
			flusher.Flush()
		}
		return s.shuttingDown()
	})
	if e := s.shuttingDown(); err != nil && e != nil {
		err = e
	}
	switch {
	case err != nil && !started:
		writeErr(w, err)
		return
	case err != nil:
		_, retryable := statusFor(err)
		enc.Encode(errorBody{NextPageToken: next, Error: err.Error(), Retryable: retryable})
		return
	case next != "":
		enc.Encode(errorBody{NextPageToken: next})
	}
	s.queries.Add(1)
	s.streamed.Add(uint64(n))
}

// streamContext registers a long-lived NDJSON stream: its context ends
// when the client goes or beginShutdown starts, whichever comes first,
// and done deregisters it.
func (s *server) streamContext(r *http.Request) (ctx context.Context, done func()) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.closing, cancel)
	s.streams.Add(1)
	return ctx, func() { stop(); cancel(); s.streams.Done() }
}

// shuttingDown returns errShuttingDown once beginShutdown has started.
func (s *server) shuttingDown() error { return context.Cause(s.closing) }

// beginShutdown ends every active NDJSON stream (each writes its
// terminal frame and returns) and waits up to drain for them to
// finish, so the HTTP server's graceful Shutdown doesn't hang on
// long-lived connections.
func (s *server) beginShutdown(drain time.Duration) {
	s.stopStream(errShuttingDown)
	done := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
	}
}

func (s *server) handleInsertDoc(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, fmt.Errorf("missing name parameter"))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxDocBytes+1))
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(data) > maxDocBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("document exceeds %d bytes", maxDocBytes)})
		return
	}
	out, err := s.b.insertDoc(r.Context(), name, data)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, out)
}

func (s *server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	out, err := s.b.deleteDoc(r.Context(), r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

type linkRequest struct {
	From string `json:"from"` // "doc.xml", "doc.xml:3"
	To   string `json:"to"`   // "doc.xml", "doc.xml:3", "doc.xml#anchor"
}

// handleLink serves POST /links (insert, 201) and DELETE /links (200).
func (s *server) handleLink(insert bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req linkRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeErr(w, err)
			return
		}
		out, err := s.b.link(r.Context(), insert, req.From, req.To)
		if err != nil {
			writeErr(w, err)
			return
		}
		code := http.StatusOK
		if insert {
			code = http.StatusCreated
		}
		writeJSON(w, code, out)
	}
}

// handleExplain runs the expression (under the optional limit and
// ranking) and reports the per-step execution plan: evaluator chosen,
// candidate-set and frontier sizes, posting entries touched.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	// Default 0 = explain the unlimited run; an explicit limit gets the
	// same validation and -max-limit clamp as /query.
	p, err := s.parseQuery(r, 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	pq, err := s.cache.get(p.expr)
	if err != nil {
		writeErr(w, err)
		return
	}
	var opts []hopi.QueryOption
	if p.limit > 0 {
		opts = append(opts, hopi.QueryLimit(p.limit))
	}
	if p.ranked {
		opts = append(opts, hopi.QueryRanked())
	}
	plan, err := s.ix.Snapshot().Explain(r.Context(), pq, opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, plan)
}

type reachResponse struct {
	From      string  `json:"from"`
	To        string  `json:"to"`
	Reachable bool    `json:"reachable"`
	Distance  *uint32 `json:"distance,omitempty"`
}

func (s *server) handleReach(w http.ResponseWriter, r *http.Request) {
	fromSpec := r.URL.Query().Get("from")
	toSpec := r.URL.Query().Get("to")
	if fromSpec == "" || toSpec == "" {
		writeErr(w, fmt.Errorf("missing from/to parameters"))
		return
	}
	snap := s.ix.Snapshot()
	coll := snap.Collection()
	u, err := coll.ResolveElement(fromSpec)
	if err != nil {
		writeErr(w, err)
		return
	}
	v, err := coll.ResolveElement(toSpec)
	if err != nil {
		writeErr(w, err)
		return
	}
	out := reachResponse{From: fromSpec, To: toSpec, Reachable: snap.Reaches(u, v)}
	if boolParam(r, "distance") {
		d, err := snap.Distance(u, v)
		if err != nil {
			writeErr(w, err)
			return
		}
		// Unreachable pairs omit the field instead of exposing the
		// uint32 Infinite sentinel.
		if d != hopi.Infinite {
			out.Distance = &d
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}
