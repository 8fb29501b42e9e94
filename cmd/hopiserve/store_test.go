package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"hopi"
)

// TestServerStoreSurvivesRestart drives writes through the HTTP API
// against a durable store, simulates a crash (no checkpoint, no
// graceful shutdown), restarts on the same path, and checks that every
// acknowledged write is visible — the hopiserve -store contract.
func TestServerStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.hopi")

	files := map[string][]byte{
		"a.xml": []byte(`<bib><book><title>A</title><author/></book><cite href="b.xml"/></bib>`),
		"b.xml": []byte(`<bib><book><title>B</title><author/></book></bib>`),
	}
	coll, err := hopi.ParseCollection(files)
	if err != nil {
		t.Fatal(err)
	}
	opts := hopi.DefaultOptions()
	opts.Seed = 1
	ix, err := hopi.Create(path, coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(ix, 0))

	const inserts = 8
	for i := 0; i < inserts; i++ {
		name := fmt.Sprintf("crash%02d.xml", i)
		body := `<bib><book><author/></book><cite href="a.xml"/></bib>`
		resp, err := http.Post(srv.URL+"/docs?name="+name, "application/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %s: %s", name, resp.Status)
		}
	}
	if st := getStats(t, srv.URL); st.num("hopi_index_durable") != 1 || st.num("hopi_replication_applied_seq") == 0 {
		t.Fatalf("stats does not report durability: %v", st)
	}

	// crash: stop serving without Close/checkpoint; the index object is
	// simply abandoned, like a killed process
	srv.Close()

	re, err := hopi.Open(path, hopi.Durable())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer re.Close()
	srv2 := httptest.NewServer(newServer(re, 0))
	defer srv2.Close()

	if got, want := getStats(t, srv2.URL).num("hopi_index_docs"), 2+inserts; got != float64(want) {
		t.Fatalf("after restart: %v docs, want %d", got, want)
	}
	var q queryResponse
	getJSON(t, srv2.URL+"/query?expr=//book//author&limit=1000", http.StatusOK, &q)
	if want := 2 + inserts; q.Count != want {
		t.Fatalf("after restart: %d //book//author matches, want %d", q.Count, want)
	}
	// the inserted docs' cites still resolve
	var reach reachResponse
	getJSON(t, srv2.URL+"/reach?from=crash00.xml&to=b.xml", http.StatusOK, &reach)
	if !reach.Reachable {
		t.Error("crash00.xml should reach b.xml via a.xml after restart")
	}
}
