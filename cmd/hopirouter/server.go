package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"hopi"
	"hopi/internal/obshttp"
	"hopi/internal/shardrouter"
)

const (
	defaultMaxLimit = 1000
	maxDocBytes     = 16 << 20
)

type routerServer struct {
	r        *hopi.Router
	maxLimit int
	mux      *http.ServeMux
}

func newRouterServer(r *hopi.Router, maxLimit int) *routerServer {
	if maxLimit <= 0 {
		maxLimit = defaultMaxLimit
	}
	s := &routerServer{r: r, maxLimit: maxLimit}
	// /metrics (text) and /stats (JSON) serve the router's own families;
	// the shards' numbers are on each shard's /metrics.
	reg := r.Unwrap().Metrics()
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obshttp.MetricsHandler(reg))
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("GET /query/stream", s.handleQueryStream)
	mux.Handle("GET /stats", obshttp.StatsHandler(reg))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /docs", s.handleInsertDoc)
	mux.HandleFunc("DELETE /docs/{name}", s.handleDeleteDoc)
	mux.HandleFunc("POST /links", s.handleLink(true))
	mux.HandleFunc("DELETE /links", s.handleLink(false))
	s.mux = mux
	return s
}

func (s *routerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errResponse struct {
	Error     string `json:"error"`
	Retryable bool   `json:"retryable,omitempty"`
}

// writeRouterErr maps the router tier's error vocabulary onto HTTP.
// The load-bearing distinction is retryable-vs-terminal: a down shard
// or a token a lagging shard will accept once caught up answer 503
// with Retry-After (clients re-send the same request), while a
// definitively stale or malformed token answers 400 (clients restart
// the page sequence from scratch).
func writeRouterErr(w http.ResponseWriter, err error) {
	var (
		stale   *hopi.StaleTokenError
		unavail *shardrouter.ShardUnavailableError
	)
	switch {
	case errors.As(err, &unavail):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error(), Retryable: true})
	case errors.As(err, &stale):
		if stale.Retryable {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error(), Retryable: true})
			return
		}
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
	case errors.Is(err, hopi.ErrExists):
		writeJSON(w, http.StatusConflict, errResponse{Error: err.Error()})
	case errors.Is(err, hopi.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
	}
}

type queryResponse struct {
	Expr          string              `json:"expr"`
	Count         int                 `json:"count"`
	Results       []hopi.RouterResult `json:"results"`
	NextPageToken string              `json:"nextPageToken,omitempty"`
}

func (s *routerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	expr := q.Get("expr")
	if expr == "" {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "expr parameter required"})
		return
	}
	// An inbound X-Hopi-Trace flows into the distributed trace, so a
	// client-chosen ID correlates the access log, the slow-query span
	// tree, and every shard's own access log.
	opt := hopi.RouterQueryOptions{Resume: q.Get("pageToken"), Trace: r.Header.Get(shardrouter.TraceHeader)}
	switch q.Get("ranked") {
	case "1", "true", "yes":
		opt.Ranked = true
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 || n > s.maxLimit {
			writeJSON(w, http.StatusBadRequest, errResponse{
				Error: fmt.Sprintf("limit must be in 1..%d", s.maxLimit)})
			return
		}
		opt.Limit = n
	}
	page, err := s.r.Query(r.Context(), expr, opt)
	if err != nil {
		writeRouterErr(w, err)
		return
	}
	if page.Results == nil {
		page.Results = []hopi.RouterResult{}
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Expr: expr, Count: len(page.Results),
		Results: page.Results, NextPageToken: page.NextToken,
	})
}

// streamEnd is the terminal line of a /query/stream response when the
// stream does not simply drain to exhaustion: a resume token when a
// limit cut it short, or an error (with the last good token, so the
// client continues instead of restarting the whole scan).
type streamEnd struct {
	NextPageToken string `json:"nextPageToken,omitempty"`
	Error         string `json:"error,omitempty"`
	Retryable     bool   `json:"retryable,omitempty"`
}

// retryableErr reports whether err is the 503-class vocabulary of
// writeRouterErr: a down shard, or a token a lagging shard will accept
// once caught up.
func retryableErr(err error) bool {
	var (
		stale   *hopi.StaleTokenError
		unavail *shardrouter.ShardUnavailableError
	)
	if errors.As(err, &unavail) {
		return true
	}
	return errors.As(err, &stale) && stale.Retryable
}

// handleQueryStream answers a distributed query as NDJSON: one result
// per line, each shard cursor page forwarded (and flushed) as soon as
// the cross-shard join produces it instead of buffering the full
// answer. Between pages the position lives in the same vector resume
// tokens /query hands out, so a stream that dies mid-way resumes with
// pageToken exactly like the paged endpoint — the terminal streamEnd
// line carries the token to continue from.
func (s *routerServer) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	expr := q.Get("expr")
	if expr == "" {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "expr parameter required"})
		return
	}
	opt := hopi.RouterQueryOptions{Resume: q.Get("pageToken"), Trace: r.Header.Get(shardrouter.TraceHeader)}
	switch q.Get("ranked") {
	case "1", "true", "yes":
		opt.Ranked = true
	}
	// limit caps the whole stream (0 = drain everything); pageSize is
	// the per-round shard page and therefore the flush granularity.
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errResponse{Error: "limit must be a positive integer"})
			return
		}
		limit = n
	}
	pageSize := 256
	if ps := q.Get("pageSize"); ps != "" {
		n, err := strconv.Atoi(ps)
		if err != nil || n <= 0 || n > s.maxLimit {
			writeJSON(w, http.StatusBadRequest, errResponse{
				Error: fmt.Sprintf("pageSize must be in 1..%d", s.maxLimit)})
			return
		}
		pageSize = n
	}
	if pageSize > s.maxLimit {
		pageSize = s.maxLimit
	}

	// Fetch the first page before committing to a 200 so parse errors
	// and unavailable shards still answer with a real HTTP status.
	opt.Limit = pageSize
	if limit > 0 && limit < pageSize {
		opt.Limit = limit
	}
	page, err := s.r.Query(r.Context(), expr, opt)
	if err != nil {
		writeRouterErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	total := 0
	for {
		for i := range page.Results {
			enc.Encode(&page.Results[i])
		}
		total += len(page.Results)
		if flusher != nil {
			flusher.Flush()
		}
		if page.NextToken == "" {
			return
		}
		if limit > 0 && total >= limit {
			enc.Encode(streamEnd{NextPageToken: page.NextToken})
			return
		}
		opt.Resume = page.NextToken
		opt.Limit = pageSize
		if limit > 0 && limit-total < pageSize {
			opt.Limit = limit - total
		}
		page, err = s.r.Query(r.Context(), expr, opt)
		if err != nil {
			// mid-stream failure: terminal line with the token the
			// client resumes from (the one that produced this error)
			enc.Encode(streamEnd{
				NextPageToken: opt.Resume,
				Error:         err.Error(),
				Retryable:     retryableErr(err),
			})
			return
		}
	}
}

func (s *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz answers 200 only when every shard is reachable and
// ready by its own /readyz, listing each shard's answer.
func (s *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.r.Unwrap().Ready(r.Context())
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

func (s *routerServer) handleInsertDoc(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "name parameter required"})
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxDocBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}
	res, err := s.r.InsertXML(r.Context(), name, data)
	if err != nil {
		writeRouterErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

func (s *routerServer) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.r.DeleteDocument(r.Context(), name); err != nil {
		writeRouterErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name})
}

type linkRequest struct {
	From string `json:"from"` // "doc.xml", "doc.xml:3"
	To   string `json:"to"`   // "doc.xml", "doc.xml:3", "doc.xml#anchor"
}

func (s *routerServer) handleLink(insert bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req linkRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
			return
		}
		var err error
		code := http.StatusCreated
		if insert {
			err = s.r.InsertLink(r.Context(), req.From, req.To)
		} else {
			err = s.r.DeleteLink(r.Context(), req.From, req.To)
			code = http.StatusOK
		}
		if err != nil {
			writeRouterErr(w, err)
			return
		}
		writeJSON(w, code, map[string]string{"from": req.From, "to": req.To})
	}
}
