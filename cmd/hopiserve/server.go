package main

import (
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

// defaultQueryLimit is the result cap applied when a query omits
// limit; defaultMaxLimit is the server-side ceiling a client-supplied
// limit is clamped to (flag-configurable via -max-limit). A client can
// never pull the unbounded result set: limit=0 or negative values are
// rejected with 400 instead of meaning "unlimited".
const (
	defaultQueryLimit = 100
	defaultMaxLimit   = 1000
)

// server wires a hopi.Index into the HTTP API. Reads are served from
// immutable snapshots, so queries keep running at full speed while
// maintenance batches apply; writes go through Index.Apply, which
// serializes them internally. Path expressions are compiled once into
// an LRU prepared-statement cache and executed as cursors, so limited
// and paginated queries stop evaluating once their page is full.
//
// A durable index (-store) additionally acts as a replication primary:
// its committed WAL batches stream to followers at GET /repl/stream. A
// follower index (-replica-of), durable too but never a publisher,
// serves the read endpoints against its latest replayed snapshot and
// refuses writes with 403.
type server struct {
	ix       *hopi.Index
	maxLimit int
	cache    *stmtCache
	mux      *http.ServeMux
	pub      *hopi.Publisher // log-shipping publisher, nil unless a durable primary

	// shard is the in-process shard adapter behind the /shard/*
	// endpoints; readyMaxLag is the replica lag ceiling for /readyz.
	shard       shardrouter.Conn
	readyMaxLag int

	// Long-lived NDJSON streams (/watch, /query/stream) register in
	// streams; beginShutdown closes closing, which cancels their
	// contexts so each can write a terminal frame and exit before the
	// HTTP server's graceful drain starts.
	closing   chan struct{}
	closeOnce sync.Once
	streams   sync.WaitGroup
	watchHB   time.Duration // heartbeat interval on idle /watch streams

	queries  atomic.Uint64 // /query + /query/stream requests answered 200
	streamed atomic.Uint64 // results written across both query endpoints

	// reg is the process metric tree served on GET /metrics: the
	// index's registry plus the serving-layer families; shardRPCs
	// counts /shard/* requests by RPC kind (the shard-side mirror of
	// the router's hopi_router_shard_rpcs_total).
	reg       *obs.Registry
	shardRPCs *obs.CounterVec
}

// newServer returns the HTTP handler for an index. maxLimit caps the
// per-query result count (0 picks the default). A durable primary gets
// a replication publisher mounted at GET /repl/stream.
func newServer(ix *hopi.Index, maxLimit int) *server {
	if maxLimit <= 0 {
		maxLimit = defaultMaxLimit
	}
	s := &server{
		ix: ix, maxLimit: maxLimit, cache: newStmtCache(defaultCacheSize),
		shard:       hopi.NewLocalShard("self", ix),
		readyMaxLag: defaultReadyMaxLag,
		closing:     make(chan struct{}),
		watchHB:     defaultWatchHeartbeat,
		reg:         obs.NewRegistry(),
	}
	// /metrics serves the whole tree: the index's families (query
	// latency by mode, WAL append/fsync, maintenance, replication,
	// segments, watch) plus the serving layer's own.
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
	s.shardRPCs = s.reg.CounterVec("hopi_shard_rpcs_total",
		"Shard RPCs served on /shard/*, by RPC kind.", "rpc")

	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obshttp.MetricsHandler(s.reg))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /query/stream", s.handleQueryStream)
	mux.HandleFunc("GET /watch", s.handleWatch)
	mux.HandleFunc("GET /explain", s.handleExplain)
	mux.HandleFunc("GET /reach", s.handleReach)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /docs", s.handleInsertDoc)
	mux.HandleFunc("DELETE /docs/{name}", s.handleDeleteDoc)
	mux.HandleFunc("POST /links", s.handleInsertLink)
	mux.HandleFunc("DELETE /links", s.handleDeleteLink)
	mux.HandleFunc("POST /shard/step", s.handleShardStep)
	mux.HandleFunc("POST /shard/deliver", s.handleShardDeliver)
	mux.HandleFunc("POST /shard/closure", s.handleShardClosure)
	mux.HandleFunc("POST /shard/resolve", s.handleShardResolve)
	if ix.Durable() && ix.ReplicaStatus().Role != "replica" {
		pub, err := ix.StartPublisher()
		if err != nil {
			// A durable server without its replication endpoint violates
			// the documented -store contract; say so instead of serving
			// mysterious 404s on /repl/stream.
			log.Printf("hopiserve: replication publisher unavailable: %v", err)
		} else {
			s.pub = pub
			mux.Handle("GET /repl/stream", pub)
		}
	}
	s.mux = mux
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

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// statusFor maps resolution failures to 404, name collisions to 409,
// writes against a read replica to 403, and everything else to 400,
// using the hopi sentinel errors (never error text, which embeds
// user-controlled names).
func statusFor(err error) int {
	switch {
	case errors.Is(err, hopi.ErrExists):
		return http.StatusConflict
	case errors.Is(err, hopi.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, hopi.ErrReadOnlyReplica):
		return http.StatusForbidden
	}
	return http.StatusBadRequest
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type queryResponse struct {
	Expr          string        `json:"expr"`
	Count         int           `json:"count"`
	ElapsedMicros int64         `json:"elapsedMicros"`
	Results       []queryResult `json:"results"`
	// NextPageToken continues the result set where this page stopped:
	// pass it back as pageToken. Present only when results remain. The
	// token is bound to the query, the ranking mode, and the snapshot
	// epoch — after a maintenance batch it is rejected as stale.
	NextPageToken string `json:"nextPageToken,omitempty"`
	// Epoch is the snapshot epoch this page was served from (the epoch
	// a NextPageToken is pinned to).
	Epoch uint64 `json:"epoch"`
}

type queryResult struct {
	Element hopi.ElemID `json:"element"`
	Doc     string      `json:"doc"`
	Tag     string      `json:"tag"`
	Score   float64     `json:"score,omitempty"`
}

// parseLimit applies the server's limit policy: positive integers
// only, clamped to the -max-limit ceiling; omitted picks def.
func (s *server) parseLimit(r *http.Request, def int) (int, error) {
	limit := def
	if limit > s.maxLimit {
		limit = s.maxLimit
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return 0, fmt.Errorf("bad limit %q: must be a positive integer", v)
		}
		// clamp to the server-side ceiling instead of letting a client
		// pull the full result set
		if n > s.maxLimit {
			n = s.maxLimit
		}
		limit = n
	}
	return limit, nil
}

// queryCursor compiles the request's expression through the statement
// cache and opens a cursor for it. The returned status is the HTTP
// code to use when err != nil.
func (s *server) queryCursor(r *http.Request, limit int) (*hopi.Cursor, uint64, int, error) {
	expr := r.URL.Query().Get("expr")
	if expr == "" {
		return nil, 0, http.StatusBadRequest, fmt.Errorf("missing expr parameter")
	}
	pq, err := s.cache.get(expr)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	opts := []hopi.QueryOption{hopi.QueryLimit(limit)}
	if boolParam(r, "ranked") {
		opts = append(opts, hopi.QueryRanked())
	}
	if tok := r.URL.Query().Get("pageToken"); tok != "" {
		opts = append(opts, hopi.QueryResume(tok))
	}
	snap := s.ix.Snapshot()
	cur, err := snap.Run(r.Context(), pq, opts...)
	if err != nil {
		// Malformed and stale tokens are client errors (400); the error
		// text distinguishes them (ErrStaleToken names the epoch change
		// so clients know to restart the page sequence). The exception
		// is a retryable stale token — issued by a replica ahead of
		// this one: the page sequence still exists, this replica just
		// has not applied that batch yet, so the client should retry
		// the same token (503) rather than restart.
		var stale *hopi.StaleTokenError
		if errors.As(err, &stale) && stale.Retryable {
			return nil, 0, http.StatusServiceUnavailable, err
		}
		return nil, 0, http.StatusBadRequest, err
	}
	return cur, snap.Epoch(), 0, nil
}

// writeQueryErr writes a queryCursor failure, adding Retry-After for
// the retryable (replica-behind) 503 case.
func writeQueryErr(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeErr(w, code, err)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	limit, err := s.parseLimit(r, defaultQueryLimit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	cur, epoch, code, err := s.queryCursor(r, limit)
	if err != nil {
		writeQueryErr(w, code, err)
		return
	}
	defer cur.Close()
	out := queryResponse{
		Expr:    r.URL.Query().Get("expr"),
		Results: make([]queryResult, 0, limit),
		Epoch:   epoch,
	}
	for cur.Next() {
		m := cur.Result()
		out.Results = append(out.Results, queryResult{
			Element: m.Element, Doc: m.Doc, Tag: m.Tag, Score: m.Score,
		})
	}
	if err := cur.Err(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out.Count = len(out.Results)
	out.ElapsedMicros = time.Since(start).Microseconds()
	if cur.HasMore() {
		out.NextPageToken = cur.Token()
	}
	s.queries.Add(1)
	s.streamed.Add(uint64(out.Count))
	writeJSON(w, http.StatusOK, out)
}

// handleQueryStream answers a query as NDJSON: one result object per
// line, written (and flushed) as the cursor produces them, followed by
// a trailing {"nextPageToken": ...} line when the limit cut the result
// set short. Errors after the first line surface as an {"error": ...}
// line.
func (s *server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	// Streaming is the drain-everything endpoint: default to the
	// server ceiling rather than the small page default.
	limit, err := s.parseLimit(r, s.maxLimit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cur, _, code, err := s.queryCursor(r, limit)
	if err != nil {
		writeQueryErr(w, code, err)
		return
	}
	defer cur.Close()
	s.streams.Add(1)
	defer s.streams.Done()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	n := 0
	for cur.Next() {
		select {
		case <-s.closing:
			// terminal frame: the client restarts from its last token
			enc.Encode(errorBody{Error: "server shutting down"})
			return
		default:
		}
		m := cur.Result()
		enc.Encode(queryResult{Element: m.Element, Doc: m.Doc, Tag: m.Tag, Score: m.Score})
		n++
		if flusher != nil && n%64 == 0 {
			flusher.Flush()
		}
	}
	if err := cur.Err(); err != nil {
		enc.Encode(errorBody{Error: err.Error()})
		return
	}
	if cur.HasMore() {
		enc.Encode(map[string]string{"nextPageToken": cur.Token()})
	}
	s.queries.Add(1)
	s.streamed.Add(uint64(n))
}

// handleExplain runs the expression (under the optional limit and
// ranking) and reports the per-step execution plan: evaluator chosen,
// candidate-set and frontier sizes, posting entries touched.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("expr")
	if expr == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing expr parameter"))
		return
	}
	pq, err := s.cache.get(expr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Default 0 = explain the unlimited run; an explicit limit gets the
	// same validation and -max-limit clamp as /query.
	limit, err := s.parseLimit(r, 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var opts []hopi.QueryOption
	if limit > 0 {
		opts = append(opts, hopi.QueryLimit(limit))
	}
	if boolParam(r, "ranked") {
		opts = append(opts, hopi.QueryRanked())
	}
	plan, err := s.ix.Snapshot().Explain(r.Context(), pq, opts...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
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
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing from/to parameters"))
		return
	}
	snap := s.ix.Snapshot()
	coll := snap.Collection()
	u, err := coll.ResolveElement(fromSpec)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	v, err := coll.ResolveElement(toSpec)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	out := reachResponse{From: fromSpec, To: toSpec, Reachable: snap.Reaches(u, v)}
	if boolParam(r, "distance") {
		d, err := snap.Distance(u, v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
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

type statsResponse struct {
	Docs         int     `json:"docs"`
	Elements     int     `json:"elements"`
	Links        int     `json:"links"`
	LabelEntries int     `json:"labelEntries"`
	AvgPerNode   float64 `json:"avgLabelsPerNode"`
	StoredBytes  int64   `json:"storedBytes"`
	DistinctHubs int     `json:"distinctHubs"`
	// Epoch is the snapshot's maintenance-batch counter; resume tokens
	// are valid only while it is unchanged. Scope identifies the index
	// the epoch belongs to, and SeqEpoch marks epochs that are durable
	// WAL sequence numbers (portable across replicas).
	Epoch    uint64 `json:"epoch"`
	Scope    uint64 `json:"scope"`
	SeqEpoch bool   `json:"seqEpoch"`
	// Ready mirrors GET /readyz (a replica is unready while
	// disconnected or too far behind its primary).
	Ready bool `json:"ready"`
	// query-path counters: requests answered, results written, and the
	// prepared-statement cache's effectiveness
	QueriesServed   uint64 `json:"queriesServed"`
	ResultsStreamed uint64 `json:"resultsStreamed"`
	PreparedCached  int    `json:"preparedCached"`
	PreparedHits    uint64 `json:"preparedHits"`
	PreparedMisses  uint64 `json:"preparedMisses"`
	// durable deployments (-store) report the write-ahead log state
	Durable   bool   `json:"durable,omitempty"`
	WALBytes  int64  `json:"walBytes,omitempty"`
	LastBatch uint64 `json:"lastBatch,omitempty"`
	// replication topology: the index's role, the durable batch
	// sequence its served state reflects, and — on a replica — the
	// primary's position and the resulting lag in batches
	Role            string `json:"role"`
	AppliedSeq      uint64 `json:"appliedSeq"`
	PrimarySeq      uint64 `json:"primarySeq,omitempty"`
	ReplicationLag  uint64 `json:"replicationLag"`
	ReplicaOf       string `json:"replicaOf,omitempty"`
	Connected       bool   `json:"connected,omitempty"`
	FollowerStreams int64  `json:"followerStreams,omitempty"`
	BatchesShipped  uint64 `json:"batchesShipped,omitempty"`
	// servers reading from a segment store (-store, -index, or a
	// replica) report the sealed tier: stack shape, live-vs-delta split, compaction progress, and
	// whether reads go through mmap or the ReadAt fallback
	Segments *hopi.SegmentStats `json:"segments,omitempty"`
	// live-query activity: watch sessions, queued deltas, coalesced
	// batches, evictions, and which evaluation path served them
	Watch hopi.WatchStats `json:"watch"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.ix.Snapshot()
	coll := snap.Collection()
	labels := snap.Labels()
	resp := statsResponse{
		Docs:            coll.NumDocs(),
		Elements:        coll.NumElements(),
		Links:           coll.NumLinks(),
		LabelEntries:    labels.Entries,
		AvgPerNode:      labels.AvgPerNode,
		StoredBytes:     labels.StoredBytes,
		DistinctHubs:    labels.DistinctHubs,
		Epoch:           snap.Epoch(),
		Scope:           snap.Scope(),
		SeqEpoch:        snap.HasSeqEpoch(),
		Ready:           s.readiness().Ready,
		QueriesServed:   s.queries.Load(),
		ResultsStreamed: s.streamed.Load(),
		PreparedCached:  s.cache.len(),
		PreparedHits:    s.cache.hits.Load(),
		PreparedMisses:  s.cache.misses.Load(),
	}
	if walBytes, lastSeq, ok := s.ix.WALSize(); ok {
		resp.Durable = true
		resp.WALBytes = walBytes
		resp.LastBatch = lastSeq
	}
	rs := s.ix.ReplicaStatus()
	resp.Role = rs.Role
	resp.AppliedSeq = rs.AppliedSeq
	resp.PrimarySeq = rs.PrimarySeq
	resp.ReplicationLag = rs.Lag
	resp.ReplicaOf = rs.PrimaryURL
	resp.Connected = rs.Connected
	resp.FollowerStreams = rs.FollowerStreams
	if s.pub != nil {
		resp.BatchesShipped = s.pub.Shipped()
	}
	if seg := s.ix.SegmentStats(); seg.Enabled {
		resp.Segments = &seg
	}
	resp.Watch = s.ix.WatchStats()
	writeJSON(w, http.StatusOK, resp)
}

type insertDocResponse struct {
	Doc        hopi.DocID `json:"doc"`
	Name       string     `json:"name"`
	Unresolved []string   `json:"unresolved,omitempty"`
	// Epoch is the snapshot epoch the write produced: clients routing
	// resume tokens across replicas use it to find a caught-up node.
	Epoch uint64 `json:"epoch"`
}

func (s *server) handleInsertDoc(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing name parameter"))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxDocBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(data) > maxDocBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("document exceeds %d bytes", maxDocBytes))
		return
	}
	b := hopi.NewBatch()
	if err := b.InsertXML(name, data); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.ix.Apply(r.Context(), b)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	op := res.Results[0]
	writeJSON(w, http.StatusCreated, insertDocResponse{
		Doc: op.Doc, Name: name, Unresolved: op.Unresolved,
		Epoch: s.ix.Snapshot().Epoch(),
	})
}

type deleteDocResponse struct {
	Doc      hopi.DocID `json:"doc"`
	Name     string     `json:"name"`
	FastPath bool       `json:"fastPath"`
	Epoch    uint64     `json:"epoch"`
}

func (s *server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	b := hopi.NewBatch()
	b.DeleteDocumentByName(name)
	res, err := s.ix.Apply(r.Context(), b)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	op := res.Results[0]
	writeJSON(w, http.StatusOK, deleteDocResponse{
		Doc: op.Doc, Name: name, FastPath: op.FastPath,
		Epoch: s.ix.Snapshot().Epoch(),
	})
}

type insertLinkRequest struct {
	From string `json:"from"` // "doc.xml", "doc.xml:3"
	To   string `json:"to"`   // "doc.xml", "doc.xml:3", "doc.xml#anchor"
}

func (s *server) handleInsertLink(w http.ResponseWriter, r *http.Request) {
	var req insertLinkRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fromDoc, fromLocal, fromAnchor, err := hopi.ParseElementSpec(req.From)
	if err == nil && fromAnchor != "" {
		err = fmt.Errorf("anchor addressing is only supported for link targets")
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	toDoc, toLocal, toAnchor, err := hopi.ParseElementSpec(req.To)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	b := hopi.NewBatch()
	if toAnchor != "" {
		b.InsertLinkByAnchor(fromDoc, fromLocal, toDoc, toAnchor)
	} else {
		b.InsertLink(fromDoc, fromLocal, toDoc, toLocal)
	}
	if _, err := s.ix.Apply(r.Context(), b); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"from": req.From, "to": req.To, "epoch": s.ix.Snapshot().Epoch(),
	})
}

func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}
