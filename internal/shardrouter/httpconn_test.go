package shardrouter

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPConnBinaryNegotiation: the server sees binary frames on every
// hot RPC and answers in binary; attached wire stats count payload
// bytes both ways.
func TestHTTPConnBinaryNegotiation(t *testing.T) {
	var jsonSeen atomic.Int32
	wantStep := &StepResponse{Epoch: 5, Scope: 2, Out: map[string][]Arrival{"a:0": {{Base: 1, Dist: 2}}}}
	wantClosure := &ClosureResponse{Dist: []uint32{0, ^uint32(0)}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !strings.HasPrefix(r.Header.Get("Content-Type"), BinaryContentType) {
			jsonSeen.Add(1)
			http.Error(w, `{"error":"expected binary"}`, http.StatusUnsupportedMediaType)
			return
		}
		w.Header().Set("Content-Type", BinaryContentType)
		switch r.URL.Path {
		case "/shard/step":
			if _, err := DecodeStepRequest(body); err != nil {
				t.Errorf("server: %v", err)
			}
			w.Write(EncodeStepResponse(wantStep))
		case "/shard/closure":
			if _, err := DecodeClosureRequest(body); err != nil {
				t.Errorf("server: %v", err)
			}
			w.Write(EncodeClosureResponse(wantClosure))
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer srv.Close()

	c := NewHTTPShard(srv.URL, time.Second)
	var ws WireStats
	c.AttachWireStats(&ws)

	gotStep, err := c.Step(context.Background(), &StepRequest{Epoch: 5, Axis: "//", Tag: "b", ProbeOut: []string{"a:0"}})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !reflect.DeepEqual(gotStep, wantStep) {
		t.Errorf("Step: got %+v want %+v", gotStep, wantStep)
	}
	gotClosure, err := c.Closure(context.Background(), &ClosureRequest{Epoch: 5, From: []string{"a:0"}, To: []string{"b:1"}})
	if err != nil {
		t.Fatalf("Closure: %v", err)
	}
	if !reflect.DeepEqual(gotClosure, wantClosure) {
		t.Errorf("Closure: got %+v want %+v", gotClosure, wantClosure)
	}
	if n := jsonSeen.Load(); n != 0 {
		t.Errorf("server saw %d JSON requests, want 0", n)
	}
	if ws.out.Load() == 0 || ws.in.Load() == 0 {
		t.Errorf("wire stats not counted: out=%d in=%d", ws.out.Load(), ws.in.Load())
	}
}

// TestHTTPConnReady: a shard's /readyz 200 is ready, a 503 carries the
// shard's own reason, and an unreachable shard is unavailable.
func TestHTTPConnReady(t *testing.T) {
	var lagging atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s", r.URL.Path)
		}
		if lagging.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"ready":false,"role":"replica","lag":70,"why":"replica 70 batches behind primary (max 64)"}`)
			return
		}
		io.WriteString(w, `{"ready":true,"role":"primary"}`)
	}))
	c := NewHTTPShard(srv.URL, time.Second)
	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("ready shard: %v", err)
	}
	lagging.Store(true)
	if err := c.Ready(context.Background()); err == nil || !strings.Contains(err.Error(), "70 batches behind") {
		t.Fatalf("lagging shard: %v", err)
	}
	srv.Close()
	var su *ShardUnavailableError
	if err := c.Ready(context.Background()); !errors.As(err, &su) {
		t.Fatalf("closed shard: %v, want *ShardUnavailableError", err)
	}
}
