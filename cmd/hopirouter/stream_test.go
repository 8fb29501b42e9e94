package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"hopi"
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
// 400 before any stream bytes.
func TestRouterQueryStreamValidation(t *testing.T) {
	srv := testRouterServer(t)
	for _, q := range []string{
		"",                         // missing expr
		"expr=//author&limit=0",    // non-positive limit
		"expr=//author&limit=x",    // garbage limit
		"expr=//author&pageSize=0", // non-positive pageSize
		fmt.Sprintf("expr=//author&pageSize=%d", defaultMaxLimit+1), // over the ceiling
		"expr=" + url.QueryEscape("(("),                             // parse error from the router
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
