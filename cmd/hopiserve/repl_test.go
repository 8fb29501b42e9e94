package main

import (
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hopi"
	"hopi/internal/storage"
)

// durableServer creates a durable primary index (which newServer
// automatically equips with a replication publisher at /repl/stream)
// over a tiny parsed collection and serves it.
func durableServer(t *testing.T, path string) (*httptest.Server, *hopi.Index) {
	t.Helper()
	files := map[string][]byte{
		"a.xml": []byte(`<bib><book><title>A</title><author/></book><cite href="b.xml"/></bib>`),
		"b.xml": []byte(`<bib><book><title>B</title><author/></book></bib>`),
	}
	coll, err := hopi.ParseCollection(files)
	if err != nil {
		t.Fatal(err)
	}
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 1
	ix, err := hopi.Create(path, coll, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(ix, 0)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		h.closeRepl()
		srv.Close()
		ix.Close()
	})
	return srv, ix
}

func postDoc(t *testing.T, base, name, body string, wantStatus int) {
	t.Helper()
	resp, err := http.Post(base+"/docs?name="+name, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: %s, want %d", name, resp.Status, wantStatus)
	}
}

func waitReplicaSeq(t *testing.T, base string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if getStats(t, base).num("hopi_replication_applied_seq") >= float64(want) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica never reached seq %d", want)
}

// TestServerReplicaServesReadsRefusesWrites wires a replica hopiserve
// (in-process) to a durable primary hopiserve: reads replicate, writes
// are refused with 403, and /stats reports the topology on both sides.
func TestServerReplicaServesReadsRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	primary, _ := durableServer(t, filepath.Join(dir, "p.hopi"))

	fol, err := hopi.Follow(primary.URL+"/repl/stream",
		hopi.FollowTimeout(15*time.Second),
		hopi.FollowReconnect(5*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	replica := httptest.NewServer(newServer(fol, 0))
	defer replica.Close()

	// a write through the primary becomes visible on the replica
	postDoc(t, primary.URL, "new.xml", `<bib><book><author/></book><cite href="a.xml"/></bib>`, http.StatusCreated)
	pstats := getStats(t, primary.URL)
	applied := uint64(pstats.num("hopi_replication_applied_seq"))
	if pstats.info("role") != "primary" || applied == 0 {
		t.Fatalf("primary stats: %v", pstats)
	}
	waitReplicaSeq(t, replica.URL, applied)

	var pq, rq queryResponse
	getJSON(t, primary.URL+"/query?expr=//book//author&limit=100", http.StatusOK, &pq)
	getJSON(t, replica.URL+"/query?expr=//book//author&limit=100", http.StatusOK, &rq)
	if pq.Count != rq.Count || rq.Count != 3 {
		t.Fatalf("primary %d matches, replica %d, want 3", pq.Count, rq.Count)
	}

	rstats := getStats(t, replica.URL)
	if rstats.info("role") != "replica" || rstats.info("primary") == "" ||
		rstats.num("hopi_replication_lag_batches") != 0 || rstats.num("hopi_replication_connected") != 1 {
		t.Fatalf("replica stats: %v", rstats)
	}
	if pstats.num("hopi_replication_follower_streams") == 0 {
		// re-read: the stream may have connected after the first probe
		if pstats = getStats(t, primary.URL); pstats.num("hopi_replication_follower_streams") == 0 {
			t.Fatalf("primary reports no follower streams: %v", pstats)
		}
	}

	// writes are refused with 403 and do not change the replica
	postDoc(t, replica.URL, "nope.xml", `<bib/>`, http.StatusForbidden)
	req, _ := http.NewRequest(http.MethodDelete, replica.URL+"/docs/a.xml", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("DELETE on replica: %s, want 403", resp.Status)
	}
}

// TestServerReplicaBehindTokenIs503 freezes a replica (its stream is
// stopped), advances the primary, and presents a primary-minted token
// to the frozen replica: same replication scope but a future sequence
// — the retryable case, answered 503 + Retry-After. A token from an
// older sequence stays a plain 400, and a token from an unrelated
// index (different scope) is a 400 bad token, never a 503 retry trap.
func TestServerReplicaBehindTokenIs503(t *testing.T) {
	dir := t.TempDir()
	primary, _ := durableServer(t, filepath.Join(dir, "p.hopi"))

	fol, err := hopi.Follow(primary.URL+"/repl/stream",
		hopi.FollowTimeout(15*time.Second),
		hopi.FollowReconnect(5*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(newServer(fol, 0))
	defer replica.Close()

	// one replicated write, then freeze the replica's stream
	postDoc(t, primary.URL, "one.xml", `<bib><book><author/></book></bib>`, http.StatusCreated)
	waitReplicaSeq(t, replica.URL, 1)
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}

	// the primary moves on; the frozen replica stays at seq 1
	postDoc(t, primary.URL, "two.xml", `<bib><book><author/></book></bib>`, http.StatusCreated)

	expr := url.QueryEscape("//book//author")
	var page queryResponse
	getJSON(t, primary.URL+"/query?expr="+expr+"&limit=1", http.StatusOK, &page)
	if page.NextPageToken == "" {
		t.Fatal("no nextPageToken on limited query")
	}
	resp, err := http.Get(replica.URL + "/query?expr=" + expr + "&limit=1&pageToken=" + url.QueryEscape(page.NextPageToken))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("future token on frozen replica: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// the reverse direction — the frozen replica's token on the
	// advanced primary — is the familiar non-retryable stale case
	var oldPage queryResponse
	getJSON(t, replica.URL+"/query?expr="+expr+"&limit=1", http.StatusOK, &oldPage)
	if oldPage.NextPageToken == "" {
		t.Fatal("no nextPageToken on replica")
	}
	resp, err = http.Get(primary.URL + "/query?expr=" + expr + "&limit=1&pageToken=" + url.QueryEscape(oldPage.NextPageToken))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("past token on primary: %s, want 400", resp.Status)
	}

	// a token minted by an unrelated durable index has a different
	// replication scope: bad token (400), not an eternal 503
	other, _ := durableServer(t, filepath.Join(dir, "other.hopi"))
	postDoc(t, other.URL, "extra.xml", `<bib><book><author/></book></bib>`, http.StatusCreated)
	postDoc(t, other.URL, "extra2.xml", `<bib><book><author/></book></bib>`, http.StatusCreated)
	var foreign queryResponse
	getJSON(t, other.URL+"/query?expr="+expr+"&limit=1", http.StatusOK, &foreign)
	resp, err = http.Get(replica.URL + "/query?expr=" + expr + "&limit=1&pageToken=" + url.QueryEscape(foreign.NextPageToken))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign-scope token: %s, want 400", resp.Status)
	}
}

// TestServerReplicationStreamEndpoint sanity-checks the raw record
// stream: a bootstrap request opens with a CRC-framed heartbeat record
// carrying the primary's committed sequence, then the image header.
func TestServerReplicationStreamEndpoint(t *testing.T) {
	dir := t.TempDir()
	primary, _ := durableServer(t, filepath.Join(dir, "p.hopi"))
	postDoc(t, primary.URL, "one.xml", `<bib><book><author/></book></bib>`, http.StatusCreated)
	resp, err := http.Get(primary.URL + "/repl/stream?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-hopi-wal" {
		t.Fatalf("stream content type %q", ct)
	}
	hb, err := storage.ReadRecord(resp.Body)
	if err != nil {
		t.Fatalf("reading first record: %v", err)
	}
	if p := hb[storage.RecordHeader:]; len(p) != 9 || p[0] != 0x10 || binary.LittleEndian.Uint64(p[1:]) != 1 {
		t.Fatalf("first record payload %x, want a heartbeat at seq 1", p)
	}
	img, err := storage.ReadRecord(resp.Body)
	if err != nil || img[storage.RecordHeader] != 0x11 {
		t.Fatalf("second record %x (%v), want an image header", img, err)
	}

	// bad from parameter
	resp2, err := http.Get(primary.URL + "/repl/stream?from=potato")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: %s, want 400", resp2.Status)
	}
}
