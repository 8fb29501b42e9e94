package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a
// query, an apply, a build) share Op; Parent is the span that caused
// this one, -1 for an operation's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder was created
	End    int64  `json:"endNs"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one pointer test per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp mints the identifier shared by the spans of one operation.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.ops++
	op := r.ops
	r.mu.Unlock()
	return op
}

func (r *recorder) begin(parent int32, op int64, name string) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took in reference
// time; it is the one way the benchmark calls into a layer it attributes
// time to. Spans keep wall-clock instants.
func (r *run) timed(parent int32, op int64, name string, fn func(id int32)) time.Duration {
	id := r.rec.begin(parent, op, name)
	t := time.Now()
	fn(id)
	d := r.clock.since(t)
	r.rec.end(id)
	return d
}

type spanCtxKey struct{}

type spanCtx struct {
	id int32
	op int64
}

// withSpan carries the current span through code the benchmark does not
// own (the router), so the shard-conn decorator can parent its spans.
func withSpan(ctx context.Context, id int32, op int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{id, op})
}

func spanFrom(ctx context.Context) (int32, int64) {
	if sc, ok := ctx.Value(spanCtxKey{}).(spanCtx); ok {
		return sc.id, sc.op
	}
	return -1, 0
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// selfTimes returns each span's self time in nanoseconds.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	for i, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(self[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// meanSelfMs is the mean self time of the spans called name, in
// reference time like every reported duration.
func (r *run) meanSelfMs(name string) float64 {
	if r.rec == nil {
		return 0
	}
	r.rec.mu.Lock()
	spans := append([]span(nil), r.rec.spans...)
	r.rec.mu.Unlock()
	self := selfTimes(spans)
	var total lats
	for i, s := range spans {
		if s.Name == name {
			start := r.rec.t0.Add(time.Duration(s.Start))
			total = append(total, r.clock.between(start, start.Add(time.Duration(self[i]))))
		}
	}
	return total.meanMs()
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Findings []string      `json:"findings"`
	Summary  []spanSummary `json:"summary"`
	Spans    []span        `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64, findings []string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Findings: findings, Summary: summarize(spans), Spans: spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
