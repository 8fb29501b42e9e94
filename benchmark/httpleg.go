package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the directory holding module hopi's go.mod: the
// working directory when the benchmark is run from a checkout, its
// parent when the smoke test runs inside benchmark/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module hopi\n") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("module hopi's go.mod not found from the working directory")
}

// httpLeg measures the layer above the cursor: it saves the query-mem
// index, builds cmd/hopiserve, serves the saved index from a subprocess
// on loopback and drives the limit-10 query set with one client.
// inProcMs is the same query set's mean through the in-process cursor.
// A failed build skips the leg with a note.
func (r *run) httpLeg(s *queryServe, inProcMs float64) {
	skip := func(format string, args ...any) { r.finding("HTTP leg skipped: "+format, args...) }
	root, err := repoRoot()
	if err != nil {
		skip("%v", err)
		return
	}
	dir, err := os.MkdirTemp(r.cfg.tmpDir, "http")
	if err != nil {
		skip("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	dir, _ = filepath.Abs(dir)
	bin := filepath.Join(dir, "hopiserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hopiserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		skip("go build ./cmd/hopiserve: %v: %s", err, strings.TrimSpace(string(out)))
		return
	}
	index := filepath.Join(dir, "ix.hopi")
	if err := s.ix.Save(index); err != nil {
		skip("Index.Save: %v", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		skip("%v", err)
		return
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := exec.Command(bin, "-index", index, "-addr", addr)
	srv.Stdout, srv.Stderr = io.Discard, io.Discard
	if err := srv.Start(); err != nil {
		skip("start hopiserve: %v", err)
		return
	}
	defer func() {
		srv.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { srv.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			srv.Process.Kill()
			<-done
		}
	}()
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) (int, error) {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return int(n), err
	}
	ready := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if _, err := get("/healthz"); err == nil {
			ready = true
			break
		}
	}
	if !ready {
		skip("hopiserve did not become healthy on %s", addr)
		return
	}
	op := r.rec.newOp()
	var samples lats
	for rep := 0; rep < 11; rep++ {
		for _, e := range queryExprs {
			var err error
			d := r.timed(-1, op, "hopiserve.GET /query", func(int32) {
				_, err = get("/query?limit=10&expr=" + url.QueryEscape(e))
			})
			r.attempted.Add(1)
			if err != nil {
				r.fail("hopiserve: %v", err)
				continue
			}
			if rep > 0 { // the first round fills the server's prepared-statement cache
				samples = append(samples, d)
			}
		}
	}
	r.set("hopiserve.http_query_ms", samples.meanMs(), len(samples))
	r.set("hopiserve.http_overhead_ms", samples.meanMs()-inProcMs, len(samples))
}
