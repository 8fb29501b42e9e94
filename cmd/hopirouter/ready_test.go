package main

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"hopi"
	"hopi/internal/shardrouter"
)

// unreadyShard answers every RPC but reports itself unready, as a
// lagging replica's /readyz does.
type unreadyShard struct{ hopi.ShardConn }

func (unreadyShard) Ready(context.Context) error {
	return errors.New("replica 65 batches behind primary (max 64)")
}

// TestReadyzListsShards: the router's /readyz answers 200 only when
// every shard is ready and lists each shard's answer, and its /stats
// is its own registry — the map and the query fan-out, no shard
// numbers.
func TestReadyzListsShards(t *testing.T) {
	srv := testRouterServer(t)
	var ready shardrouter.Readiness
	getJSON(t, srv.URL+"/readyz", http.StatusOK, &ready)
	if !ready.Ready || len(ready.Shards) != 2 || ready.Shards[0].Name != "s0" || !ready.Shards[1].Ready {
		t.Fatalf("readyz: %+v", ready)
	}
	var st map[string]any
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st["hopi_router_docs"] != 10.0 || st["hopi_router_shards"] != 2.0 {
		t.Errorf("router stats: %v", st)
	}
	for name := range st {
		if !strings.HasPrefix(name, "hopi_router_") {
			t.Errorf("router /stats carries %s", name)
		}
	}

	lagging := testRouterServer(t, func(conns []hopi.ShardConn) { conns[1] = unreadyShard{conns[1]} })
	ready = shardrouter.Readiness{}
	getJSON(t, lagging.URL+"/readyz", http.StatusServiceUnavailable, &ready)
	if ready.Ready || !ready.Shards[0].Ready || ready.Shards[1].Ready ||
		!strings.Contains(ready.Shards[1].Why, "65 batches behind") {
		t.Fatalf("readyz with a lagging shard: %+v", ready)
	}
}
