package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hopi"
	"hopi/internal/gen"
)

// newTestServer returns the handler plus the index behind it, serving
// a generated citation network big enough for real pages.
func newTestServer(t *testing.T, docs int) (http.Handler, *hopi.Index) {
	t.Helper()
	coll := hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(docs, 17)))
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 17
	ix, err := hopi.Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(ix, 0), ix
}

// get performs a request against the handler and returns status + body.
func get(t *testing.T, h http.Handler, target string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func getInto(t *testing.T, h http.Handler, target string, wantStatus int, out any) []byte {
	t.Helper()
	code, body := get(t, h, target)
	if code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (body %s)", target, code, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decode: %v (body %s)", target, err, body)
		}
	}
	return body
}

// TestServerPagination drains /query page by page via nextPageToken
// and checks the concatenation equals the one-shot result, for both
// plain and ranked queries.
func TestServerPagination(t *testing.T) {
	h, _ := newTestServer(t, 40)
	for _, ranked := range []string{"", "&ranked=1"} {
		var full queryResponse
		getInto(t, h, "/query?expr=//article//author&limit=1000"+ranked, http.StatusOK, &full)
		if full.Count < 20 {
			t.Fatalf("full result too small: %d", full.Count)
		}
		if full.NextPageToken != "" {
			t.Fatalf("full result should have no nextPageToken")
		}

		var pages []queryResult
		token := ""
		for n := 0; ; n++ {
			u := "/query?expr=//article//author&limit=7" + ranked
			if token != "" {
				u += "&pageToken=" + url.QueryEscape(token)
			}
			var page queryResponse
			getInto(t, h, u, http.StatusOK, &page)
			if page.Count != len(page.Results) {
				t.Fatalf("count %d but %d results", page.Count, len(page.Results))
			}
			pages = append(pages, page.Results...)
			if page.NextPageToken == "" {
				break
			}
			token = page.NextPageToken
			if n > full.Count {
				t.Fatal("page walk did not terminate")
			}
		}
		if len(pages) != full.Count {
			t.Fatalf("ranked=%v: paged %d results, want %d", ranked != "", len(pages), full.Count)
		}
		for i := range pages {
			if pages[i] != full.Results[i] {
				t.Fatalf("ranked=%v: page result %d diverged: %+v vs %+v", ranked != "", i, pages[i], full.Results[i])
			}
		}
	}
}

// TestServerPageTokenErrors: malformed tokens and tokens from an older
// snapshot epoch are both 400, with distinct messages.
func TestServerPageTokenErrors(t *testing.T) {
	h, ix := newTestServer(t, 20)

	for _, bad := range []string{"garbage!", "QUJD", "a"} {
		code, body := get(t, h, "/query?expr=//article//author&pageToken="+url.QueryEscape(bad))
		if code != http.StatusBadRequest {
			t.Fatalf("token %q: status %d, want 400", bad, code)
		}
		if !strings.Contains(string(body), "invalid page token") {
			t.Fatalf("token %q: body %s, want an invalid-token message", bad, body)
		}
	}

	// a token for a different query is invalid, not stale
	var page queryResponse
	getInto(t, h, "/query?expr=//article//author&limit=3", http.StatusOK, &page)
	if page.NextPageToken == "" {
		t.Fatal("expected a nextPageToken at limit 3")
	}
	code, body := get(t, h, "/query?expr=//article//cite&pageToken="+url.QueryEscape(page.NextPageToken))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "different query") {
		t.Fatalf("cross-query token: %d %s", code, body)
	}

	// maintenance retires the token with the distinct stale message
	if _, err := ix.Apply(t.Context(), insertBatch(t, "fresh.xml")); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, h, "/query?expr=//article//author&limit=3&pageToken="+url.QueryEscape(page.NextPageToken))
	if code != http.StatusBadRequest {
		t.Fatalf("stale token: status %d, want 400 (body %s)", code, body)
	}
	if !strings.Contains(string(body), "stale page token") || !strings.Contains(string(body), "epoch") {
		t.Fatalf("stale token: body %s, want the distinct stale-epoch message", body)
	}
}

func insertBatch(t *testing.T, name string) *hopi.Batch {
	t.Helper()
	b := hopi.NewBatch()
	if err := b.InsertXML(name, []byte(`<article><author/></article>`)); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerQueryStream: the NDJSON endpoint emits one result per
// line, ends with a nextPageToken line when truncated, and the lines
// match the paged JSON endpoint.
func TestServerQueryStream(t *testing.T) {
	h, _ := newTestServer(t, 20)
	var full queryResponse
	getInto(t, h, "/query?expr=//article//author&limit=1000", http.StatusOK, &full)

	code, body := get(t, h, "/query/stream?expr=//article//author")
	if code != http.StatusOK {
		t.Fatalf("stream: status %d (%s)", code, body)
	}
	var results []queryResult
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		var r queryResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if len(results) != full.Count {
		t.Fatalf("stream: %d lines, want %d", len(results), full.Count)
	}
	for i := range results {
		if results[i] != full.Results[i] {
			t.Fatalf("stream line %d diverged", i)
		}
	}

	// truncated stream: last line is the nextPageToken
	code, body = get(t, h, "/query/stream?expr=//article//author&limit=5")
	if code != http.StatusOK {
		t.Fatalf("limited stream: status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 6 {
		t.Fatalf("limited stream: %d lines, want 5 results + 1 token", len(lines))
	}
	var tok struct {
		NextPageToken string `json:"nextPageToken"`
	}
	if err := json.Unmarshal([]byte(lines[5]), &tok); err != nil || tok.NextPageToken == "" {
		t.Fatalf("limited stream tail %q: %v", lines[5], err)
	}
	// the token continues the sequence on /query
	var page queryResponse
	getInto(t, h, "/query?expr=//article//author&limit=5&pageToken="+url.QueryEscape(tok.NextPageToken), http.StatusOK, &page)
	if page.Count == 0 || page.Results[0] != full.Results[5] {
		t.Fatalf("stream token resume: %+v, want to continue at result 5", page)
	}

	// bad limits are rejected before any line is written
	code, _ = get(t, h, "/query/stream?expr=//article//author&limit=0")
	if code != http.StatusBadRequest {
		t.Fatalf("limit=0 stream: status %d, want 400", code)
	}
}

// TestServerExplain: the endpoint reports per-step modes, the tree
// answers //article//author and the link-arc walk //cite//title with no
// label read, and the limited run walks fewer nodes than the full one.
func TestServerExplain(t *testing.T) {
	h, _ := newTestServer(t, 40)
	var tree hopi.Plan
	getInto(t, h, "/explain?expr=//article//author", http.StatusOK, &tree)
	if len(tree.Steps) != 2 || tree.Steps[1].Mode != "descendant" || tree.Matches == 0 {
		t.Fatalf("tree plan: %+v", tree)
	}
	if st := tree.Steps[1]; st.Postings != 0 || st.TreeMatches != tree.Matches {
		t.Fatalf("//article//author plan: %+v, want 0 postings and %d tree matches", st, tree.Matches)
	}
	// a title is no cite's tree descendant: the link-arc walk decides
	// it, and the body carries the walk's counters
	var full hopi.Plan
	body := getInto(t, h, "/explain?expr=//cite//title", http.StatusOK, &full)
	if len(full.Steps) != 2 || full.Steps[1].Mode != "descendant" || full.Matches == 0 {
		t.Fatalf("full plan: %+v", full)
	}
	if st := full.Steps[1]; st.Postings != 0 || st.WalkMatches != st.Candidates || st.Walked == 0 {
		t.Fatalf("//cite//title plan: %+v, want every title decided by the walk and no label read", st)
	}
	for _, field := range []string{`"walkMatches":`, `"walked":`} {
		if !bytes.Contains(body, []byte(field)) {
			t.Fatalf("explain body lacks %s: %s", field, body)
		}
	}
	var lim hopi.Plan
	getInto(t, h, "/explain?expr=//cite//title&limit=5", http.StatusOK, &lim)
	if lim.Steps[1].Mode != "descendant" || lim.Matches != 5 {
		t.Fatalf("limited plan: %+v", lim)
	}
	if lim.Steps[1].Walked >= full.Steps[1].Walked {
		t.Fatalf("limited explain walked %d nodes, full %d", lim.Steps[1].Walked, full.Steps[1].Walked)
	}
	var ranked hopi.Plan
	getInto(t, h, "/explain?expr=//article//author&limit=5&ranked=1", http.StatusOK, &ranked)
	if ranked.Steps[1].Mode != "ranked-descendant" || ranked.Matches != 5 {
		t.Fatalf("ranked plan: %+v", ranked)
	}
	code, _ := get(t, h, "/explain?expr=notaquery")
	if code != http.StatusBadRequest {
		t.Fatalf("bad expr explain: %d", code)
	}
	code, _ = get(t, h, "/explain")
	if code != http.StatusBadRequest {
		t.Fatalf("missing expr explain: %d", code)
	}
}

// TestServerStatsCounters: repeated queries hit the prepared cache and
// the serving families in /stats reflect it.
func TestServerStatsCounters(t *testing.T) {
	h, ix := newTestServer(t, 20)
	for i := 0; i < 5; i++ {
		getInto(t, h, "/query?expr=//article//author&limit=3", http.StatusOK, nil)
	}
	var st statsDoc
	getInto(t, h, "/stats", http.StatusOK, &st)
	if got := st.num("hopi_serve_queries_total"); got != 5 {
		t.Errorf("hopi_serve_queries_total = %v, want 5", got)
	}
	if got := st.num("hopi_serve_results_streamed_total"); got != 15 {
		t.Errorf("hopi_serve_results_streamed_total = %v, want 15", got)
	}
	size, hits, misses := st.num("hopi_serve_prepared_cache_entries"),
		st.num("hopi_serve_prepared_cache_hits_total"), st.num("hopi_serve_prepared_cache_misses_total")
	if size != 1 || misses != 1 || hits != 4 {
		t.Errorf("prepared cache: size %v hits %v misses %v, want 1/4/1", size, hits, misses)
	}
	before := st.info("epoch")
	if _, err := ix.Apply(t.Context(), insertBatch(t, "e.xml")); err != nil {
		t.Fatal(err)
	}
	st = nil
	getInto(t, h, "/stats", http.StatusOK, &st)
	if st.info("epoch") == before {
		t.Errorf("epoch unchanged (%s) after a batch", before)
	}
}

// TestStmtCacheEviction: the LRU cap holds and parse failures are not
// cached.
func TestStmtCacheEviction(t *testing.T) {
	c := newStmtCache(2)
	if _, err := c.get("//a//b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get("//c//d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get("//a//b"); err != nil { // refresh a
		t.Fatal(err)
	}
	if _, err := c.get("//e//f"); err != nil { // evicts //c//d
		t.Fatal(err)
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	if _, err := c.get("not a query"); err == nil {
		t.Fatal("parse failure cached as success")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d after parse failure, want 2", c.len())
	}
	if c.hits.Load() != 1 || c.misses.Load() != 3 {
		t.Fatalf("hits %d misses %d, want 1/3", c.hits.Load(), c.misses.Load())
	}
}
