package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// watchStream opens GET /watch and returns a line scanner plus the
// response for cleanup.
func watchStream(t *testing.T, url string) (*bufio.Scanner, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("watch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch: content type %q", ct)
	}
	t.Cleanup(func() { resp.Body.Close() })
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return sc, resp
}

func nextFrame(t *testing.T, sc *bufio.Scanner) watchFrame {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("watch stream ended: %v", sc.Err())
	}
	var fr watchFrame
	if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
		t.Fatalf("bad frame %q: %v", sc.Text(), err)
	}
	return fr
}

// TestWatchEndpoint: init frame carries the full result set; a write
// produces a delta frame whose adds land in the new document; resuming
// with the delta's epoch skips the init frame.
func TestWatchEndpoint(t *testing.T) {
	srv, ix := testServer(t)
	defer ix.Close()

	sc, _ := watchStream(t, srv.URL+"/watch?expr=//article//author")
	init := nextFrame(t, sc)
	if init.Type != "init" || len(init.Add) != 0 {
		t.Fatalf("init frame: %+v", init)
	}

	resp, err := http.Post(srv.URL+"/docs?name=w.xml", "application/xml",
		strings.NewReader(`<article><title>T</title><author/><author/></article>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: status %d", resp.StatusCode)
	}

	var delta watchFrame
	for {
		delta = nextFrame(t, sc)
		if delta.Type != "hb" {
			break
		}
	}
	if delta.Type != "delta" || len(delta.Add) != 2 || len(delta.Remove) != 0 {
		t.Fatalf("delta frame: %+v", delta)
	}
	for _, r := range delta.Add {
		if r.Doc != "w.xml" || r.Tag != "author" {
			t.Fatalf("delta add: %+v", r)
		}
	}

	// resume from the delta's epoch: no init frame, a resume frame
	sc2, _ := watchStream(t, srv.URL+"/watch?expr=//article//author&resume="+strconv.FormatUint(delta.Epoch, 10))
	fr := nextFrame(t, sc2)
	if fr.Type != "resume" {
		t.Fatalf("resume frame: %+v", fr)
	}

	// stats expose the watch families
	if st := getStats(t, srv.URL); st.num("hopi_watch_sessions") < 1 || st.num("hopi_watch_delivered_total") == 0 {
		t.Fatalf("stats watch families: sessions %v, delivered %v",
			st.num("hopi_watch_sessions"), st.num("hopi_watch_delivered_total"))
	}
}

// TestWatchEndpointValidation: missing and malformed parameters fail
// fast with 400 instead of opening a stream.
func TestWatchEndpointValidation(t *testing.T) {
	srv, ix := testServer(t)
	defer ix.Close()
	for _, u := range []string{
		"/watch",
		"/watch?expr=%28%28",
		"/watch?expr=//author&resume=notanumber",
	} {
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", u, resp.StatusCode)
		}
	}
}

// TestGracefulShutdownClosesStreams is the regression test for the
// shutdown path: with an idle /watch stream open, beginShutdown must
// deliver a terminal bye frame and return promptly instead of hanging
// on the long-lived connection.
func TestGracefulShutdownClosesStreams(t *testing.T) {
	_, ix := testServer(t)
	defer ix.Close()
	h := newServer(ix, 0)
	h.watchHB = 50 * time.Millisecond
	srv := httptest.NewServer(h)
	defer srv.Close()

	sc, _ := watchStream(t, srv.URL+"/watch?expr=//author")
	fr := nextFrame(t, sc)
	if fr.Type != "init" {
		t.Fatalf("init frame: %+v", fr)
	}

	done := make(chan struct{})
	go func() {
		h.beginShutdown(5 * time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("beginShutdown hung on an open watch stream")
	}

	// the stream must end with a terminal frame, not a cut connection
	for {
		fr = nextFrame(t, sc)
		if fr.Type == "hb" {
			continue
		}
		break
	}
	if fr.Type != "bye" {
		t.Fatalf("terminal frame: %+v", fr)
	}
	if sc.Scan() {
		t.Fatalf("frame after bye: %q", sc.Text())
	}

	// new watch requests are refused while shutting down
	resp, err := http.Get(srv.URL + "/watch?expr=//author")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("watch during shutdown: status %d, want 503", resp.StatusCode)
	}
}
