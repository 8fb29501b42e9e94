package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRouterSmoke is the 3-process end-to-end for the distributed
// query tier: it builds the real hopiserve binary, starts two empty
// durable shard primaries and a router (hopiserve -shards) over them,
// inserts documents with cross-shard citations through the router,
// queries through the router, kill -9s one shard (queries answer a
// fast 503 with Retry-After and the router reports unready), restarts
// the shard on its store, and verifies the tier recovers with the
// same answer set.
func TestRouterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("3-process smoke test; skipped in -short")
	}
	dir := t.TempDir()
	serveBin := buildServe(t, dir)

	ports := freePorts(t, 3)
	shardURLs := make([]string, 2)
	shardCmds := make([]*exec.Cmd, 2)
	startShard := func(i int) *exec.Cmd {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		cmd := exec.Command(serveBin,
			"-addr", addr,
			"-store", filepath.Join(dir, fmt.Sprintf("shard%d.hopi", i)),
			"-docs", "0",
			"-checkpoint", "1s")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start shard %d: %v", i, err)
		}
		return cmd
	}
	for i := range shardCmds {
		shardCmds[i] = startShard(i)
		shardURLs[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		defer func(c *exec.Cmd) { c.Process.Kill(); c.Wait() }(shardCmds[i])
		waitStatus(t, shardURLs[i]+"/healthz", http.StatusOK)
	}

	routerURL := fmt.Sprintf("http://127.0.0.1:%d", ports[2])
	router := exec.Command(serveBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"-shards", strings.Join(shardURLs, ","),
		"-map", filepath.Join(dir, "shardmap.json"))
	router.Stdout = os.Stderr
	router.Stderr = os.Stderr
	if err := router.Start(); err != nil {
		t.Fatalf("start router: %v", err)
	}
	defer func() { router.Process.Kill(); router.Wait() }()
	waitStatus(t, routerURL+"/healthz", http.StatusOK)
	waitStatus(t, routerURL+"/readyz", http.StatusOK)

	// Insert a citation chain through the router: each document cites
	// its predecessor, so with least-loaded placement alternating the
	// docs across two shards, every link crosses shards.
	for i := 0; i < 6; i++ {
		xml := `<article><title>t</title><author/></article>`
		if i > 0 {
			xml = fmt.Sprintf(`<article><title>t</title><author/><cite href="pub%02d.xml"/></article>`, i-1)
		}
		postDoc(t, routerURL, fmt.Sprintf("pub%02d.xml", i), xml, http.StatusCreated)
	}
	var st map[string]any
	getJSON(t, routerURL+"/stats", http.StatusOK, &st)
	var ready struct {
		Ready bool `json:"ready"`
	}
	getJSON(t, routerURL+"/readyz", http.StatusOK, &ready)
	if st["hopi_router_docs"] != 6.0 || !ready.Ready {
		t.Fatalf("router stats after inserts: %v, ready %v", st, ready.Ready)
	}
	if n, _ := st["hopi_router_cross_links"].(float64); n == 0 {
		t.Fatal("alternating citation chain produced no cross-shard links")
	}

	// //article//author reaches every author from every citing article
	// through the link chain — answering it requires the cross-shard
	// join, not just per-shard fan-out.
	query := routerURL + "/query?expr=" + url.QueryEscape("//article//author") + "&limit=1000"
	var q1 queryResponse
	getJSON(t, query, http.StatusOK, &q1)
	// 6 articles each reach their own author plus every author down
	// their citation chain: 6+5+4+3+2+1 article→author pairs, but
	// results are distinct author elements reached from any article —
	// all 6 authors match.
	if q1.Count != 6 {
		t.Fatalf("//article//author count = %d, want 6", q1.Count)
	}
	var qr queryResponse
	getJSON(t, routerURL+"/query?expr="+url.QueryEscape("//article//title")+"&ranked=1&limit=3", http.StatusOK, &qr)
	if qr.Count != 3 || qr.NextPageToken == "" {
		t.Fatalf("ranked limited query: count=%d token=%q", qr.Count, qr.NextPageToken)
	}

	// kill -9 one shard: queries fail fast with 503 + Retry-After, the
	// router reports unready
	if err := shardCmds[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	shardCmds[1].Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(query)
		if err != nil {
			t.Fatal(err)
		}
		retryAfter := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if retryAfter == "" {
				t.Fatal("503 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query against dead shard answered %d, want 503", resp.StatusCode)
		}
		time.Sleep(25 * time.Millisecond)
	}
	waitStatus(t, routerURL+"/readyz", http.StatusServiceUnavailable)

	// restart the shard on its store: the tier recovers and the answer
	// set is unchanged
	shardCmds[1] = startShard(1)
	defer func() { shardCmds[1].Process.Kill(); shardCmds[1].Wait() }()
	waitStatus(t, shardURLs[1]+"/healthz", http.StatusOK)
	waitStatus(t, routerURL+"/readyz", http.StatusOK)
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var q2 queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&q2); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if q2.Count != q1.Count {
				t.Fatalf("post-restart count = %d, want %d", q2.Count, q1.Count)
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("query never recovered after shard restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
