package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hopi"
	"hopi/internal/shardrouter"
)

func testServer(t *testing.T) (*httptest.Server, *hopi.Index) {
	t.Helper()
	files := map[string][]byte{
		"a.xml": []byte(`<bib><book><title>A</title><author id="au"/></book><cite href="b.xml"/></bib>`),
		"b.xml": []byte(`<bib><book><title>B</title><author/></book><cite href="c.xml#sec"/></bib>`),
		"c.xml": []byte(`<paper><section id="sec"><author/></section></paper>`),
	}
	coll, err := hopi.ParseCollection(files)
	if err != nil {
		t.Fatal(err)
	}
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 1
	ix, err := hopi.Build(coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(ix, 0))
	t.Cleanup(srv.Close)
	return srv, ix
}

// TestServerQueryLimitClamping: limit<=0 and garbage are rejected with
// 400 (no more "0 means unlimited" full-result pulls), oversized
// limits are clamped to the server ceiling, and valid limits truncate.
func TestServerQueryLimitClamping(t *testing.T) {
	srv, _ := testServer(t)

	for _, bad := range []string{"0", "-1", "-100", "abc", "1.5"} {
		getJSON(t, srv.URL+"/query?expr=//book//author&limit="+bad, http.StatusBadRequest, nil)
	}

	var q queryResponse
	getJSON(t, srv.URL+"/query?expr=//bib//*&limit=1", http.StatusOK, &q)
	if q.Count != 1 {
		t.Errorf("limit=1: got %d results", q.Count)
	}

	// a tiny server-side ceiling clamps a huge client limit
	clamped := httptest.NewServer(newServer(mustIndex(t), 2))
	defer clamped.Close()
	getJSON(t, clamped.URL+"/query?expr=//bib//*&limit=999999", http.StatusOK, &q)
	if q.Count != 2 {
		t.Errorf("clamped query: got %d results, want the ceiling of 2", q.Count)
	}
	// the default limit is also capped by the ceiling
	getJSON(t, clamped.URL+"/query?expr=//bib//*", http.StatusOK, &q)
	if q.Count != 2 {
		t.Errorf("default-limit query: got %d results, want 2", q.Count)
	}
}

func mustIndex(t *testing.T) *hopi.Index {
	t.Helper()
	files := map[string][]byte{
		"a.xml": []byte(`<bib><book><title>A</title><author/></book><book><author/></book></bib>`),
	}
	coll, err := hopi.ParseCollection(files)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := hopi.Build(coll, hopi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: %s, want %d", url, resp.Status, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	srv, _ := testServer(t)

	var q queryResponse
	getJSON(t, srv.URL+"/query?expr=//book//author", http.StatusOK, &q)
	if q.Count < 2 {
		t.Errorf("//book//author: %+v", q)
	}
	var ranked queryResponse
	getJSON(t, srv.URL+"/query?expr=//bib//author&ranked=1&limit=1", http.StatusOK, &ranked)
	if ranked.Count != 1 || ranked.Results[0].Score <= 0 {
		t.Errorf("ranked query: %+v", ranked)
	}
	getJSON(t, srv.URL+"/query", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/query?expr=book", http.StatusBadRequest, nil)

	var reach reachResponse
	getJSON(t, srv.URL+"/reach?from=a.xml&to=c.xml%23sec&distance=1", http.StatusOK, &reach)
	if !reach.Reachable || reach.Distance == nil || *reach.Distance == 0 {
		t.Errorf("reach: %+v", reach)
	}
	getJSON(t, srv.URL+"/reach?from=nope.xml&to=a.xml", http.StatusNotFound, nil)

	if st := getStats(t, srv.URL); st.num("hopi_index_docs") != 3 || st.num("hopi_index_elements") == 0 {
		t.Errorf("stats: %v", st)
	}

	// Insert a document citing a.xml, then delete it again.
	body := `<bib><book><author/></book><cite href="a.xml"/></bib>`
	resp, err := http.Post(srv.URL+"/docs?name=d.xml", "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ins insertDocResponse
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /docs: %s", resp.Status)
	}
	json.NewDecoder(resp.Body).Decode(&ins)
	resp.Body.Close()
	if len(ins.Unresolved) != 0 {
		t.Errorf("insert: unresolved %v", ins.Unresolved)
	}
	getJSON(t, srv.URL+"/reach?from=d.xml&to=c.xml%23sec", http.StatusOK, &reach)
	if !reach.Reachable {
		t.Error("inserted doc should reach c.xml#sec through its cite")
	}

	// Re-inserting the same name must conflict, not shadow the original.
	resp, err = http.Post(srv.URL+"/docs?name=d.xml", "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate POST /docs: %s, want 409", resp.Status)
	}

	// Out-of-range link endpoints must be rejected, not panic the op.
	resp, err = http.Post(srv.URL+"/links", "application/json",
		strings.NewReader(`{"from":"d.xml:99","to":"a.xml"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range POST /links: %s, want 400", resp.Status)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/docs/d.xml", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /docs/d.xml: %s", resp.Status)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/docs/d.xml", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE /docs/d.xml: %s, want 404", resp.Status)
	}
	resp.Body.Close()
}

func TestServerLinkEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/links", "application/json",
		strings.NewReader(`{"from":"c.xml:1","to":"a.xml"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /links: %s", resp.Status)
	}
	resp.Body.Close()
	var reach reachResponse
	getJSON(t, srv.URL+"/reach?from=c.xml&to=a.xml", http.StatusOK, &reach)
	if !reach.Reachable {
		t.Error("c.xml should reach a.xml after the new link")
	}
}

// TestServerShardRPCBinaryOnly: the hot shard RPCs take binary frames
// only. A JSON request is refused with 415 and a malformed frame with
// 400, both with JSON error bodies; a binary frame gets a binary answer.
func TestServerShardRPCBinaryOnly(t *testing.T) {
	srv, _ := testServer(t)
	post := func(ctype string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/shard/step", ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}
	for _, c := range []struct {
		ctype string
		body  []byte
		want  int
	}{
		{"application/json", []byte(`{"axis":"//","tag":"author","seed":true}`), http.StatusUnsupportedMediaType},
		{shardrouter.BinaryContentType, []byte("HB garbage"), http.StatusBadRequest},
	} {
		resp, body := post(c.ctype, c.body)
		var eb errorBody
		if resp.StatusCode != c.want || json.Unmarshal(body, &eb) != nil || eb.Error == "" {
			t.Fatalf("%s request: %s %q, want %d with a JSON error", c.ctype, resp.Status, body, c.want)
		}
	}

	req := shardrouter.EncodeStepRequest(&shardrouter.StepRequest{Axis: "//", Tag: "author", Seed: true})
	resp, body := post(shardrouter.BinaryContentType, req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != shardrouter.BinaryContentType {
		t.Fatalf("binary step: %s, Content-Type %q", resp.Status, resp.Header.Get("Content-Type"))
	}
	if sr, err := shardrouter.DecodeStepResponse(body); err != nil || len(sr.Frontier) == 0 {
		t.Fatalf("binary step response: %+v, %v", sr, err)
	}
}

// TestServerQueriesDuringInserts answers queries while document
// inserts are in flight — the mixed workload hopiserve exists for.
func TestServerQueriesDuringInserts(t *testing.T) {
	srv, ix := testServer(t)

	const writers, docsPerWriter = 2, 10
	var wg sync.WaitGroup
	errc := make(chan error, writers+4)
	done := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				name := fmt.Sprintf("w%d-%d.xml", w, i)
				body := `<bib><book><author/></book><cite href="a.xml"/></bib>`
				resp, err := http.Post(srv.URL+"/docs?name="+name, "application/xml", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					errc <- fmt.Errorf("POST %s: %s", name, resp.Status)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	queries := 0
	for {
		select {
		case <-done:
			if queries == 0 {
				t.Fatal("no queries overlapped the inserts")
			}
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			var q queryResponse
			getJSON(t, srv.URL+"/query?expr=//book//author&limit=1000", http.StatusOK, &q)
			want := 2 + writers*docsPerWriter // a.xml, b.xml + one author per inserted doc
			if q.Count != want {
				t.Errorf("after inserts: %d //book//author matches, want %d", q.Count, want)
			}
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
			return
		default:
			var q queryResponse
			getJSON(t, srv.URL+"/query?expr=//book//author&limit=1000", http.StatusOK, &q)
			if q.Count < 2 {
				t.Fatalf("mid-insert query lost baseline matches: %+v", q)
			}
			queries++
		}
	}
}
