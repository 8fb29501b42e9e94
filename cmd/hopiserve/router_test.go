package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hopi"
	"hopi/internal/gen"
	"hopi/internal/shardrouter"
)

// streamLine is the union of the two /query/stream line shapes: result
// rows carry doc/tag, the terminal line carries nextPageToken or error.
type streamLine struct {
	Doc           string `json:"doc"`
	Tag           string `json:"tag"`
	NextPageToken string `json:"nextPageToken"`
	Error         string `json:"error"`
	Retryable     bool   `json:"retryable"`
}

// testRouterServer stands up an in-process 2-shard router over a
// citation chain (every link crosses shards under the alternating
// placement the partitioner picks for a chain) and serves it. wrap,
// when given, may replace shard connections before the router is
// built.
func testRouterServer(t *testing.T, wrap ...func([]hopi.ShardConn)) *httptest.Server {
	t.Helper()
	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		xml := `<article><title>t</title><author/></article>`
		if i > 0 {
			xml = fmt.Sprintf(`<article><title>t</title><author/><cite href="pub%02d.xml"/></article>`, i-1)
		}
		files[fmt.Sprintf("pub%02d.xml", i)] = []byte(xml)
	}
	coll, err := hopi.ParseCollection(files)
	if err != nil {
		t.Fatal(err)
	}
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 3
	m, err := hopi.BuildShardMap(coll, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	parts := hopi.SplitCollection(coll, m)
	conns := make([]hopi.ShardConn, len(parts))
	for i, p := range parts {
		ix, err := hopi.Build(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		conns[i] = hopi.NewLocalShard(fmt.Sprintf("s%d", i), ix)
	}
	for _, w := range wrap {
		w(conns)
	}
	router, err := hopi.NewRouter(conns, m, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newRouterServer(router, 0))
	t.Cleanup(srv.Close)
	return srv
}

// readStream fetches a /query/stream URL and splits it into result
// lines plus the optional terminal line.
func readStream(t *testing.T, u string) ([]streamLine, *streamLine) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", u, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("GET %s: content type %q", u, ct)
	}
	var results []streamLine
	var end *streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if ln.NextPageToken != "" || ln.Error != "" {
			if end != nil {
				t.Fatalf("two terminal lines: %+v then %+v", *end, ln)
			}
			end = &ln
			continue
		}
		if end != nil {
			t.Fatalf("result line after terminal line: %+v", ln)
		}
		results = append(results, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results, end
}

// TestRouterQueryStream: the stream endpoint drains the same answer
// set /query pages through, a small pageSize forces multiple
// cross-shard rounds, and a limit yields a terminal resume-token line
// the next stream continues from without overlap.
func TestRouterQueryStream(t *testing.T) {
	srv := testRouterServer(t)
	expr := url.QueryEscape("//article//author")

	var full queryResponse
	getJSON(t, srv.URL+"/query?expr="+expr+"&limit=1000", http.StatusOK, &full)
	if full.Count != 10 {
		t.Fatalf("/query count = %d, want 10", full.Count)
	}

	// full drain through multiple 3-result pages
	rows, end := readStream(t, srv.URL+"/query/stream?expr="+expr+"&pageSize=3")
	if end != nil {
		t.Fatalf("exhausted stream ended with terminal line %+v", *end)
	}
	if len(rows) != full.Count {
		t.Fatalf("stream rows = %d, want %d", len(rows), full.Count)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Tag != "author" {
			t.Fatalf("stream row: %+v", r)
		}
		seen[r.Doc] = true
	}

	// limited stream: 4 rows, then a resume token; the resumed stream
	// yields exactly the remaining rows
	head, end := readStream(t, srv.URL+"/query/stream?expr="+expr+"&pageSize=3&limit=4")
	if len(head) != 4 || end == nil || end.NextPageToken == "" || end.Error != "" {
		t.Fatalf("limited stream: %d rows, end %+v", len(head), end)
	}
	tail, end2 := readStream(t, srv.URL+"/query/stream?expr="+expr+"&pageSize=3&pageToken="+url.QueryEscape(end.NextPageToken))
	if end2 != nil {
		t.Fatalf("resumed stream ended with terminal line %+v", *end2)
	}
	if len(head)+len(tail) != full.Count {
		t.Fatalf("head %d + tail %d != %d", len(head), len(tail), full.Count)
	}
	got := map[string]bool{}
	for _, r := range append(head, tail...) {
		if got[r.Doc] {
			t.Fatalf("doc %s streamed twice across resume", r.Doc)
		}
		got[r.Doc] = true
	}
	for d := range seen {
		if !got[d] {
			t.Fatalf("doc %s missing after resume", d)
		}
	}
}

// TestRouterQueryStreamValidation: malformed parameters fail fast with
// 400 before any stream bytes; an oversized pageSize is clamped.
func TestRouterQueryStreamValidation(t *testing.T) {
	srv := testRouterServer(t)
	for _, q := range []string{
		"",                              // missing expr
		"expr=//author&limit=0",         // non-positive limit
		"expr=//author&limit=x",         // garbage limit
		"expr=//author&pageSize=0",      // non-positive pageSize
		"expr=" + url.QueryEscape("(("), // parse error from the router
	} {
		resp, err := http.Get(srv.URL + "/query/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	// a pageSize over the ceiling is clamped to it, as a limit is
	// (TestServerQueryLimitClamping), not refused
	rows, end := readStream(t, srv.URL+"/query/stream?expr="+url.QueryEscape("//article//author")+
		fmt.Sprintf("&pageSize=%d", defaultMaxLimit+1))
	if len(rows) != 10 || end != nil {
		t.Fatalf("pageSize over the ceiling: %d rows, end %+v; want all 10 and no terminal line", len(rows), end)
	}

	// a stale page token from another stream shape is terminal-400 too
	resp, err := http.Get(srv.URL + "/query/stream?expr=" + url.QueryEscape("//author") + "&pageToken=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus token: status %d, want 400", resp.StatusCode)
	}
}

// unreadyShard answers every RPC but reports itself unready, as a
// lagging replica's /readyz does.
type unreadyShard struct{ hopi.ShardConn }

func (unreadyShard) Ready(context.Context) error {
	return errors.New("replica 65 batches behind primary (max 64)")
}

// TestReadyzListsShards: the router's /readyz answers 200 only when
// every shard is ready and lists each shard's answer, and its /stats
// is its own registry — the map and the query fan-out, no shard
// numbers.
func TestReadyzListsShards(t *testing.T) {
	srv := testRouterServer(t)
	var ready shardrouter.Readiness
	getJSON(t, srv.URL+"/readyz", http.StatusOK, &ready)
	if !ready.Ready || len(ready.Shards) != 2 || ready.Shards[0].Name != "s0" || !ready.Shards[1].Ready {
		t.Fatalf("readyz: %+v", ready)
	}
	var st map[string]any
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st["hopi_router_docs"] != 10.0 || st["hopi_router_shards"] != 2.0 {
		t.Errorf("router stats: %v", st)
	}
	for name := range st {
		if !strings.HasPrefix(name, "hopi_router_") {
			t.Errorf("router /stats carries %s", name)
		}
	}

	lagging := testRouterServer(t, func(conns []hopi.ShardConn) { conns[1] = unreadyShard{conns[1]} })
	ready = shardrouter.Readiness{}
	getJSON(t, lagging.URL+"/readyz", http.StatusServiceUnavailable, &ready)
	if ready.Ready || !ready.Shards[0].Ready || ready.Shards[1].Ready ||
		!strings.Contains(ready.Shards[1].Why, "65 batches behind") {
		t.Fatalf("readyz with a lagging shard: %+v", ready)
	}
}

// TestRouterDocBodyLimit: a router-mode POST /docs over the body limit
// answers 413, as over an index, instead of inserting a cut document.
func TestRouterDocBodyLimit(t *testing.T) {
	srv := testRouterServer(t)
	body := bytes.Repeat([]byte(" "), maxDocBytes+1)
	copy(body, "<article>")
	resp, err := http.Post(srv.URL+"/docs?name=big.xml", "application/xml", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of %d bytes: %s, want 413", len(body), resp.Status)
	}
	var st map[string]any
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st["hopi_router_docs"] != 10.0 {
		t.Fatalf("router docs after a refused insert: %v, want 10", st["hopi_router_docs"])
	}
}

// dblpPair serves one generated DBLP collection twice: from one index
// (index mode) and from a router over three in-process shards of the
// same collection (router mode).
func dblpPair(t *testing.T, docs int) (ixSrv, routerSrv http.Handler) {
	t.Helper()
	const seed = 17
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	opts.Seed = seed
	collection := func() *hopi.Collection { return hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(docs, seed))) }
	ix, err := hopi.Build(collection(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	coll := collection()
	m, err := hopi.BuildShardMap(coll, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	var conns []hopi.ShardConn
	for i, part := range hopi.SplitCollection(coll, m) {
		six, err := hopi.Build(part, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { six.Close() })
		conns = append(conns, hopi.NewLocalShard(fmt.Sprintf("s%d", i), six))
	}
	router, err := hopi.NewRouter(conns, m, "")
	if err != nil {
		t.Fatal(err)
	}
	return newServer(ix, 0), newRouterServer(router, 0)
}

// TestRouterQueryDefaultLimit: a router-mode /query without a limit
// answers the default page and a token to continue, as over an index,
// not the whole result set.
func TestRouterQueryDefaultLimit(t *testing.T) {
	_, h := dblpPair(t, 40)
	var page queryResponse
	getInto(t, h, "/query?expr=//article//*", http.StatusOK, &page)
	if page.Count != defaultQueryLimit || page.NextPageToken == "" {
		t.Fatalf("no limit: %d rows, token %q; want %d and a token", page.Count, page.NextPageToken, defaultQueryLimit)
	}
}

// TestIndexRouterPagesEqual: the router's answers are byte-identical to
// one unsharded index over the same collection, over HTTP: for
// unranked, ranked and three-step queries, every page's results JSON
// is the same in both modes, page after page through each mode's own
// tokens.
func TestIndexRouterPagesEqual(t *testing.T) {
	ixSrv, routerSrv := dblpPair(t, 40)
	type page struct {
		Results       json.RawMessage `json:"results"`
		NextPageToken string          `json:"nextPageToken"`
	}
	for _, q := range []string{
		"expr=" + url.QueryEscape("//article//author"),
		"expr=" + url.QueryEscape("//article//author") + "&ranked=1",
		"expr=" + url.QueryEscape("//article//cite//title"),
		"expr=" + url.QueryEscape("//article//cite//title") + "&ranked=1",
	} {
		var ixTok, rTok string
		rows := 0
		for n := 0; ; n++ {
			var a, b page
			getInto(t, ixSrv, "/query?limit=5&"+q+"&pageToken="+url.QueryEscape(ixTok), http.StatusOK, &a)
			getInto(t, routerSrv, "/query?limit=5&"+q+"&pageToken="+url.QueryEscape(rTok), http.StatusOK, &b)
			if !bytes.Equal(a.Results, b.Results) {
				t.Fatalf("%s page %d:\nindex  %s\nrouter %s", q, n, a.Results, b.Results)
			}
			if (a.NextPageToken == "") != (b.NextPageToken == "") {
				t.Fatalf("%s page %d: index token %q, router token %q", q, n, a.NextPageToken, b.NextPageToken)
			}
			rows += strings.Count(string(a.Results), `"doc"`)
			if a.NextPageToken == "" {
				break
			}
			ixTok, rTok = a.NextPageToken, b.NextPageToken
		}
		if rows <= 10 {
			t.Fatalf("%s: %d rows in all, want more than two pages", q, rows)
		}
	}
}
