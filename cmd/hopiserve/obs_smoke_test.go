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

	"hopi/internal/obs"
	"hopi/internal/shardrouter"
)

// TestObservabilitySmoke is the 3-process end-to-end for the
// observability layer: real hopiserve shards behind a real router
// (hopiserve -shards), all three with the access log on and the router
// with the slow-query log armed at 0ms and a loopback pprof listener.
// It asserts that /metrics on every process serves strictly parseable
// Prometheus text with the expected families, that a client trace ID
// survives the router hop (echoed on the response while the same ID
// rides the binary shard frames), and that pprof answers on its own
// listener only — never through the serving port.
func TestObservabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("3-process smoke test; skipped in -short")
	}
	dir := t.TempDir()
	serveBin := buildServe(t, dir)

	ports := freePorts(t, 4)
	shardURLs := make([]string, 2)
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		cmd := exec.Command(serveBin, "-addr", addr, "-docs", "0", "-access-log")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start shard %d: %v", i, err)
		}
		defer func() { cmd.Process.Kill(); cmd.Wait() }()
		shardURLs[i] = "http://" + addr
		waitStatus(t, shardURLs[i]+"/healthz", http.StatusOK)
	}

	routerURL := fmt.Sprintf("http://127.0.0.1:%d", ports[2])
	pprofAddr := fmt.Sprintf("127.0.0.1:%d", ports[3])
	router := exec.Command(serveBin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[2]),
		"-shards", strings.Join(shardURLs, ","),
		"-map", filepath.Join(dir, "shardmap.json"),
		"-slow-query-ms", "0",
		"-access-log",
		"-pprof", pprofAddr)
	router.Stdout = os.Stderr
	router.Stderr = os.Stderr
	if err := router.Start(); err != nil {
		t.Fatalf("start router: %v", err)
	}
	defer func() { router.Process.Kill(); router.Wait() }()
	waitStatus(t, routerURL+"/healthz", http.StatusOK)
	waitStatus(t, routerURL+"/readyz", http.StatusOK)

	// A citation chain through the router: alternating placement makes
	// every link cross-shard, so the traced query below exercises the
	// binary shard frames with the trailing trace section.
	for i := 0; i < 4; i++ {
		xml := `<article><title>t</title><author/></article>`
		if i > 0 {
			xml = fmt.Sprintf(`<article><title>t</title><author/><cite href="pub%d.xml"/></article>`, i-1)
		}
		postDoc(t, routerURL, fmt.Sprintf("pub%d.xml", i), xml, http.StatusCreated)
	}

	const traceID = "feedface00c0ffee"
	req, err := http.NewRequest("GET", routerURL+"/query?expr="+url.QueryEscape("//article//author")+"&limit=100", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(shardrouter.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced query: %s", resp.Status)
	}
	if got := resp.Header.Get(shardrouter.TraceHeader); got != traceID {
		t.Fatalf("response trace = %q, want the inbound %q", got, traceID)
	}
	var q queryResponse
	decodeInto(t, resp, &q)
	if q.Count != 4 {
		t.Fatalf("traced cross-shard query count = %d, want 4", q.Count)
	}

	// /metrics on every process: must parse strictly and carry the
	// families dashboards scrape.
	scrapeFams := func(base string, families ...string) map[string]*obs.ParsedFamily {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/metrics: %s", base, resp.Status)
		}
		fams, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatalf("%s/metrics is not valid exposition text: %v", base, err)
		}
		for _, f := range families {
			if fams[f] == nil {
				t.Errorf("%s/metrics missing family %s", base, f)
			}
		}
		return fams
	}
	for _, u := range shardURLs {
		scrapeFams(u, "hopi_query_seconds", "hopi_wal_fsync_seconds",
			"hopi_serve_queries_total", "hopi_shard_rpcs_total", "hopi_watch_sessions")
	}
	rfams := scrapeFams(routerURL, "hopi_router_queries_total",
		"hopi_router_shard_rpcs_total", "hopi_router_shards", "hopi_router_wire_bytes_out_total")
	var served float64
	for _, s := range rfams["hopi_router_queries_total"].Samples {
		served += s.Value
	}
	if served < 1 {
		t.Errorf("hopi_router_queries_total = %v after a query", served)
	}

	// pprof answers on its dedicated loopback listener...
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof never answered on %s: %v", pprofAddr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	// ...and never through the public serving port.
	resp2, err := http.Get(routerURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("profiling endpoints reachable through the public serving port")
	}
}

func decodeInto(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
