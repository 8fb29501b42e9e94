package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hopi"
	"hopi/internal/shardrouter"
)

// TestCrossShardQueryTrace is the end-to-end for distributed tracing:
// a router with the slow-query log armed at threshold 0 queries two
// hopiserve shards over real HTTP (binary frames, spans stamped into
// the wire), and the captured span tree must carry the caller-chosen
// trace ID on every shard-reported span — proving the ID propagated
// router → HTTP → shard → HTTP → router unbroken.
func TestCrossShardQueryTrace(t *testing.T) {
	ctx := context.Background()
	conns := make([]hopi.ShardConn, 2)
	for i := range conns {
		coll, err := hopi.ParseCollection(map[string][]byte{})
		if err != nil {
			t.Fatal(err)
		}
		opts := hopi.DefaultOptions()
		opts.WithDistance = true
		ix, err := hopi.Build(coll, opts)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newServer(ix, 0))
		t.Cleanup(srv.Close)
		conns[i] = shardrouter.NewHTTPShard(srv.URL, 5*time.Second)
	}

	var mu sync.Mutex
	var traces []*hopi.RouterQueryTrace
	router, err := hopi.NewRouter(conns, shardrouter.NewShardMap(2), "",
		hopi.RouterSlowQueryLog(0, func(tr *hopi.RouterQueryTrace) {
			mu.Lock()
			traces = append(traces, tr)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}

	// A citation chain inserted through the router alternates across the
	// two shards (least-loaded placement), so every link crosses shards
	// and //article//author needs the cross-shard join.
	for i := 0; i < 4; i++ {
		xml := `<article><title>t</title><author/></article>`
		if i > 0 {
			xml = fmt.Sprintf(`<article><title>t</title><author/><cite href="pub%d.xml"/></article>`, i-1)
		}
		if _, err := router.InsertXML(ctx, fmt.Sprintf("pub%d.xml", i), []byte(xml)); err != nil {
			t.Fatal(err)
		}
	}

	const traceID = "0123456789abcdef"
	page, err := router.Query(ctx, "//article//author", hopi.RouterQueryOptions{Trace: traceID})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(page.Results))
	}

	mu.Lock()
	got := len(traces)
	var tr *hopi.RouterQueryTrace
	if got > 0 {
		tr = traces[0]
	}
	mu.Unlock()
	if got != 1 {
		t.Fatalf("slow-query log fired %d times, want 1", got)
	}
	if tr.TraceID != traceID {
		t.Fatalf("TraceID = %q, want the caller-chosen %q", tr.TraceID, traceID)
	}
	if tr.Results != 4 || tr.Attempts < 1 || tr.Expr != "//article//author" {
		t.Fatalf("trace header: %+v", tr)
	}

	// The seed round contacts both shards; the // step adds at least one
	// more RPC. Every successful span must carry the shard's own Span
	// echoing the trace ID — the HTTP handlers only attach one when the
	// binary frame's trailing trace survived the round trip. The
	// router's own compute shows up as spans of its own, with no shard
	// timing: assembling the endpoint graph, and routing plus composing
	// the // step.
	phases := map[string]bool{}
	routerRPCs := map[string]string{}
	if len(tr.Spans) < 3 {
		t.Fatalf("only %d spans: %s", len(tr.Spans), tr.Format())
	}
	for _, sp := range tr.Spans {
		phases[sp.Phase] = true
		if sp.Err != "" {
			t.Fatalf("span %s/%s failed: %s", sp.Phase, sp.Shard, sp.Err)
		}
		if sp.Shard == shardrouter.RouterSpanShard {
			if sp.Remote != nil || sp.WallUs < 0 {
				t.Fatalf("router span %s/%s: %+v", sp.Phase, sp.RPC, sp)
			}
			routerRPCs[sp.RPC] = sp.Phase
			continue
		}
		if sp.Remote == nil {
			t.Fatalf("span %s/%s has no shard-reported timing: %s", sp.Phase, sp.Shard, tr.Format())
		}
		if sp.Remote.Trace != traceID {
			t.Fatalf("span %s/%s echoed trace %q, want %q", sp.Phase, sp.Shard, sp.Remote.Trace, traceID)
		}
		if sp.Remote.QueueUs < 0 || sp.Remote.EvalUs < 0 || sp.Remote.EncodeUs < 0 {
			t.Fatalf("span %s/%s has negative timings: %+v", sp.Phase, sp.Shard, sp.Remote)
		}
	}
	if !phases["seed"] {
		t.Fatalf("no seed phase in %s", tr.Format())
	}
	if routerRPCs["assemble"] != "closure" || routerRPCs["route"] != "step1://author" {
		t.Fatalf("router spans %v, want assemble in closure and route in step1://author: %s", routerRPCs, tr.Format())
	}
	if line := tr.Format(); !strings.Contains(line, "router/assemble") || !strings.Contains(line, "router/route") {
		t.Fatalf("slow-query line does not attribute router self time: %s", line)
	}

	// Untraced queries (threshold 0 still logs) mint their own ID.
	page2, err := router.Query(ctx, "//article//author", hopi.RouterQueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Results) != 4 {
		t.Fatalf("second query: %d results, want 4", len(page2.Results))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(traces) != 2 {
		t.Fatalf("slow-query log fired %d times, want 2", len(traces))
	}
	if minted := traces[1].TraceID; len(minted) != 16 || minted == traceID {
		t.Fatalf("minted trace ID %q", minted)
	}
}
