package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReplicationSmoke is the 3-process end-to-end: it builds the real
// hopiserve binary, starts a durable primary and two -replica-of
// followers as separate OS processes (the first keeping its store in a
// -store directory), writes through the primary, reads from the
// followers, kill -9s the primary, restarts it on the same port, and
// verifies the followers reconnect and converge on a post-restart
// write. Then it kill -9s the persistent follower, writes again, and
// restarts the follower on its directory: it resumes from its own store
// without a new image and converges.
func TestReplicationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("3-process smoke test; skipped in -short")
	}
	dir := t.TempDir()
	bin := buildServe(t, dir)

	ports := freePorts(t, 3)
	primaryAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	primaryURL := "http://" + primaryAddr
	store := filepath.Join(dir, "p.hopi")

	startPrimary := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", primaryAddr,
			"-store", store,
			"-docs", "20", "-seed", "3",
			"-checkpoint", "1s")
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start primary: %v", err)
		}
		return cmd
	}
	primary := startPrimary()
	defer func() { primary.Process.Kill(); primary.Wait() }()
	waitStatus(t, primaryURL+"/healthz", http.StatusOK)

	// acknowledged writes at the primary
	for i := 0; i < 3; i++ {
		postDoc(t, primaryURL, fmt.Sprintf("smoke%02d.xml", i),
			`<bib><book><author/></book><cite href="pub00001.xml"/></bib>`, http.StatusCreated)
	}
	pstats := getStats(t, primaryURL)
	if pstats.info("role") != "primary" || pstats.num("hopi_replication_applied_seq") != 3 {
		t.Fatalf("primary stats after writes: %v", pstats)
	}

	// two follower processes; the first keeps its store in a directory
	followers := make([]string, 2)
	replicaStore := filepath.Join(dir, "replica0")
	startFollower := func(i int) *exec.Cmd {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i+1]), "-replica-of", primaryURL}
		if i == 0 {
			args = append(args, "-store", replicaStore, "-checkpoint", "1s")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start follower %d: %v", i, err)
		}
		return cmd
	}
	procs := make([]*exec.Cmd, len(followers))
	for i := range followers {
		procs[i] = startFollower(i)
		followers[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i+1])
	}
	defer func() {
		for _, cmd := range procs {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	var pq queryResponse
	getJSON(t, primaryURL+"/query?expr="+qesc("//book//author")+"&limit=1000", http.StatusOK, &pq)
	for i, base := range followers {
		waitStatus(t, base+"/healthz", http.StatusOK)
		waitReplicaSeq(t, base, 3)
		var rq queryResponse
		getJSON(t, base+"/query?expr="+qesc("//book//author")+"&limit=1000", http.StatusOK, &rq)
		if rq.Count != pq.Count {
			t.Fatalf("follower %d: %d matches, primary has %d", i, rq.Count, pq.Count)
		}
		if role := getStats(t, base).info("role"); role != "replica" {
			t.Fatalf("follower %d role %q", i, role)
		}
	}

	// kill -9 the primary, restart it on the same address
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	primary = startPrimary()
	defer func() { primary.Process.Kill(); primary.Wait() }()
	waitStatus(t, primaryURL+"/healthz", http.StatusOK)
	if pstats = getStats(t, primaryURL); pstats.num("hopi_replication_applied_seq") != 3 {
		t.Fatalf("primary lost committed writes across kill -9: %v", pstats)
	}

	// a post-restart write reaches both followers through the resumed
	// streams
	postDoc(t, primaryURL, "after-crash.xml",
		`<bib><book><author/></book><cite href="smoke00.xml"/></bib>`, http.StatusCreated)
	getJSON(t, primaryURL+"/query?expr="+qesc("//book//author")+"&limit=1000", http.StatusOK, &pq)
	for i, base := range followers {
		waitReplicaSeq(t, base, 4)
		var rq queryResponse
		getJSON(t, base+"/query?expr="+qesc("//book//author")+"&limit=1000", http.StatusOK, &rq)
		if rq.Count != pq.Count {
			t.Fatalf("follower %d after restart: %d matches, primary has %d", i, rq.Count, pq.Count)
		}
	}

	// kill -9 the persistent follower, write while it is down, restart
	// it on its store: it resumes after its last logged batch (the
	// primary's WAL covers the gap) instead of installing an image
	if err := procs[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[0].Wait()
	postDoc(t, primaryURL, "while-down.xml",
		`<bib><book><author/></book><cite href="after-crash.xml"/></bib>`, http.StatusCreated)
	getJSON(t, primaryURL+"/query?expr="+qesc("//book//author")+"&limit=1000", http.StatusOK, &pq)
	procs[0] = startFollower(0)
	waitStatus(t, followers[0]+"/healthz", http.StatusOK)
	waitReplicaSeq(t, followers[0], 5)
	var rq queryResponse
	getJSON(t, followers[0]+"/query?expr="+qesc("//book//author")+"&limit=1000", http.StatusOK, &rq)
	if rq.Count != pq.Count {
		t.Fatalf("restarted follower: %d matches, primary has %d", rq.Count, pq.Count)
	}
	if n := counterTotal(scrape(t, followers[0]), "hopi_replication_bootstraps_total", "", ""); n != 0 {
		t.Fatalf("restarted follower installed %v images instead of resuming from its store", n)
	}
}

func qesc(expr string) string {
	return strings.ReplaceAll(strings.ReplaceAll(expr, "/", "%2F"), " ", "%20")
}

// buildServe builds this command into dir and returns the binary.
func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hopiserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return ports
}

func waitStatus(t *testing.T, url string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never answered %d", url, want)
}
