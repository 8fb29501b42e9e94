package shardrouter

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Lightweight request tracing for the distributed query tier. The
// router mints one trace ID per query and propagates it on every shard
// RPC — as the X-Hopi-Trace header over HTTP and as the optional
// trailing trace field of the binary frames (see codec.go). A shard
// that sees the trace returns a Span with its own timing breakdown
// (queue/eval/encode); the router assembles the spans, grouped by
// evaluation phase, into a QueryTrace — the span tree a slow-query log
// line renders.

// TraceHeader carries the trace ID on HTTP shard RPCs (and is echoed
// on server responses so access logs on both tiers correlate).
const TraceHeader = "X-Hopi-Trace"

// NewTraceID mints a 16-hex-digit random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// fallback ID keeps tracing non-fatal here.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Span is the shard-side timing breakdown of one RPC, returned only
// when the request carried a trace ID. Queue covers request read and
// decode, Eval the snapshot pin plus evaluation, Encode the response
// frame's serialization (0 for in-process shards, which have neither
// a queue nor an encode leg).
type Span struct {
	// Trace echoes the request's trace ID, proving end-to-end
	// propagation through whatever transport carried the RPC.
	Trace    string `json:"trace,omitempty"`
	QueueUs  int64  `json:"queueUs"`
	EvalUs   int64  `json:"evalUs"`
	EncodeUs int64  `json:"encodeUs"`
}

// RouterSpanShard is the Shard of the spans that time the router's own
// compute rather than an RPC: "assemble" (the endpoint graph for the
// pinned cut) and "route" (a // step's cross-shard join).
const RouterSpanShard = "router"

// TraceSpan is one shard RPC as the router observed it: the phase of
// the evaluation it belongs to, the router-side wall time (network
// included), and the shard-reported Span when the shard returned one
// (older shards do not). Spans with Shard RouterSpanShard time the
// router's own compute instead and never carry a Remote.
type TraceSpan struct {
	Phase string `json:"phase"` // "seed", "closure", "step2://author"
	Shard string `json:"shard"`
	RPC   string `json:"rpc"` // "step", "closure", "deliver"; "assemble", "route" for the router's own
	// WallUs is the full router-side RPC duration.
	WallUs int64 `json:"wallUs"`
	// Remote is the shard's own breakdown; nil when the shard predates
	// span reporting or the RPC failed before a response.
	Remote *Span  `json:"remote,omitempty"`
	Err    string `json:"err,omitempty"`
}

// QueryTrace is the assembled span tree of one router query: the
// trace ID, the plan the query decomposed into, and every shard RPC
// grouped by phase. All methods are safe on a nil receiver (tracing
// off) and for concurrent use (the fan-out rounds add spans in
// parallel).
type QueryTrace struct {
	TraceID  string `json:"trace"`
	Expr     string `json:"expr"`
	Ranked   bool   `json:"ranked"`
	Plan     string `json:"plan"` // step decomposition, e.g. "seed(//article) → //author"
	Attempts int    `json:"attempts"`
	WallUs   int64  `json:"wallUs"`
	Results  int    `json:"results"`

	mu    sync.Mutex
	Spans []TraceSpan `json:"spans"`
}

// ID returns the trace ID ("" when tracing is off).
func (t *QueryTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.TraceID
}

// attempt counts one evaluation attempt (retries under write churn
// re-run the whole fan-out; their spans stay in the tree).
func (t *QueryTrace) attempt() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Attempts++
	t.mu.Unlock()
}

// add records one shard RPC observed from the router side.
func (t *QueryTrace) add(phase, rpc, shard string, start time.Time, remote *Span, err error) {
	if t == nil {
		return
	}
	sp := TraceSpan{
		Phase: phase, Shard: shard, RPC: rpc,
		WallUs: time.Since(start).Microseconds(),
		Remote: remote,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	t.mu.Lock()
	t.Spans = append(t.Spans, sp)
	t.mu.Unlock()
}

// finish stamps the total wall time and result count.
func (t *QueryTrace) finish(start time.Time, results int) {
	if t == nil {
		return
	}
	t.WallUs = time.Since(start).Microseconds()
	t.Results = results
}

func fmtUs(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	}
	return fmt.Sprintf("%dµs", us)
}

// Format renders the trace as one log line: header fields, the plan
// summary, then the span tree grouped by phase in first-seen order —
// each phase a bracket of its per-shard spans with the router wall
// time and the shard's queue/eval/encode breakdown.
func (t *QueryTrace) Format() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	spans := make([]TraceSpan, len(t.Spans))
	copy(spans, t.Spans)
	t.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "slow query trace=%s wall=%s results=%d attempts=%d ranked=%t expr=%q plan=[%s]",
		t.TraceID, fmtUs(t.WallUs), t.Results, t.Attempts, t.Ranked, t.Expr, t.Plan)

	var order []string
	byPhase := map[string][]TraceSpan{}
	for _, sp := range spans {
		if _, ok := byPhase[sp.Phase]; !ok {
			order = append(order, sp.Phase)
		}
		byPhase[sp.Phase] = append(byPhase[sp.Phase], sp)
	}
	for _, ph := range order {
		fmt.Fprintf(&b, " %s[", ph)
		for i, sp := range byPhase[ph] {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s/%s %s", sp.Shard, sp.RPC, fmtUs(sp.WallUs))
			if sp.Remote != nil {
				fmt.Fprintf(&b, "(q=%s e=%s n=%s)", fmtUs(sp.Remote.QueueUs), fmtUs(sp.Remote.EvalUs), fmtUs(sp.Remote.EncodeUs))
			}
			if sp.Err != "" {
				fmt.Fprintf(&b, " err=%q", sp.Err)
			}
		}
		b.WriteByte(']')
	}
	return b.String()
}
