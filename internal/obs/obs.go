// Package obs is the zero-dependency metrics core shared by every hopi
// process: atomic counters, gauges, and fixed-bucket latency histograms,
// grouped into labeled families inside a Registry, exposed in Prometheus
// text format by WritePrometheus and as one JSON object by WriteJSON.
//
// Registries compose: a process owns one root Registry and attaches the
// per-component registries of the subsystems it hosts (index, router,
// HTTP layer) with AddSub. Exposition walks the whole tree; families
// with the same name across sub-registries are merged under a single
// HELP/TYPE block so a scrape never sees duplicate headers.
//
// All mutating methods are safe on nil receivers, so instrumented hot
// paths pay a single pointer test when metrics are not wired up.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the default histogram bounds for request-scale
// latencies, in seconds: 100µs to 10s, roughly geometric.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// DefSyncBuckets are finer bounds for storage-layer operations (WAL
// fsync, block writes): 50µs to 1s.
var DefSyncBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 1,
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add increments the value by d (CAS loop). Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency/size distribution. Bounds are
// upper-inclusive; an implicit +Inf bucket catches the tail. Exposition
// derives _count from the bucket counts so the cumulative series is
// monotonic even under concurrent observation.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0. Nil-safe.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metric kinds
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindHist    = "histogram"
)

// family is one named metric family: a kind, a help string, label
// names, and the children keyed by their label values.
type family struct {
	name   string
	help   string
	kind   string
	labels []string

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() float64
	hists    map[string]*Histogram
	bounds   []float64 // histogram families only
	order    []string  // insertion order of label keys
	// info, on an info family, samples its one series' label values.
	info func() []string
}

const labelSep = "\x1f"

func (f *family) child(values []string) string {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	return strings.Join(values, labelSep)
}

// Registry holds metric families and optional sub-registries.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	ord  []string
	subs []*Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// AddSub attaches a child registry; its families are included (and
// merged by name) in this registry's exposition. Nil-safe on both ends.
func (r *Registry) AddSub(sub *Registry) {
	if r == nil || sub == nil || sub == r {
		return
	}
	r.mu.Lock()
	r.subs = append(r.subs, sub)
	r.mu.Unlock()
}

// fam returns (creating if needed) the named family, enforcing that
// kind and label names match any prior registration.
func (r *Registry) fam(name, help, kind string, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic("obs: conflicting registration for " + name)
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labels: append([]string(nil), labels...),
		counters: map[string]*Counter{}, gauges: map[string]*Gauge{},
		funcs: map[string]func() float64{}, hists: map[string]*Histogram{},
		bounds: append([]float64(nil), bounds...),
	}
	r.fams[name] = f
	r.ord = append(r.ord, name)
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help).With()
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.fam(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.fam(name, help, kindGauge, nil, labels)}
}

// GaugeFunc registers a gauge sampled by fn at exposition time —
// the fit for values another subsystem already tracks (replication
// lag, segment stack depth, WAL size). Nil-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.sampled(name, help, kindGauge, fn)
}

// CounterFunc registers a counter whose value is sampled by fn at
// exposition time — the fit for monotone counts another subsystem
// already maintains (shard RPC counters, batches shipped, cache hits),
// folded into the registry without double-counting. fn must be
// monotone non-decreasing. Nil-safe.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.sampled(name, help, kindCounter, fn)
}

func (r *Registry) sampled(name, help, kind string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.fam(name, help, kind, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	key := f.child(nil)
	if _, ok := f.funcs[key]; !ok {
		f.order = append(f.order, key)
	}
	f.funcs[key] = fn
}

// CounterFuncVec registers one sampled-counter child with the given
// label values inside a labeled family. Nil-safe.
func (r *Registry) CounterFuncVec(name, help string, labels, values []string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.fam(name, help, kindCounter, nil, labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	key := f.child(values)
	if _, ok := f.funcs[key]; !ok {
		f.order = append(f.order, key)
	}
	f.funcs[key] = fn
}

// GaugeFuncVec registers one sampled-gauge child with the given label
// values inside a labeled family. Nil-safe.
func (r *Registry) GaugeFuncVec(name, help string, labels, values []string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.fam(name, help, kindGauge, nil, labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	key := f.child(values)
	if _, ok := f.funcs[key]; !ok {
		f.order = append(f.order, key)
	}
	f.funcs[key] = fn
}

// Info registers an info-style family: one gauge series of value 1
// whose label values fn samples at exposition time — the fit for
// facts a float cannot carry (a role, an identity, a URL). fn returns
// one value per label name. Nil-safe.
func (r *Registry) Info(name, help string, labels []string, fn func() []string) {
	if r == nil {
		return
	}
	f := r.fam(name, help, kindGauge, nil, labels)
	f.mu.Lock()
	f.info = fn
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given bucket upper bounds (must be sorted ascending).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(name, help, bounds).With()
}

// HistogramVec registers a histogram family with label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.fam(name, help, kindHist, bounds, labels)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the child for the given label values, creating it on
// first use. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := v.f.child(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.counters[key]
	if !ok {
		c = &Counter{}
		v.f.counters[key] = c
		v.f.order = append(v.f.order, key)
	}
	return c
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	key := v.f.child(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	g, ok := v.f.gauges[key]
	if !ok {
		g = &Gauge{}
		v.f.gauges[key] = g
		v.f.order = append(v.f.order, key)
	}
	return g
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	key := v.f.child(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.hists[key]
	if !ok {
		h = &Histogram{bounds: v.f.bounds, counts: make([]atomic.Uint64, len(v.f.bounds)+1)}
		v.f.hists[key] = h
		v.f.order = append(v.f.order, key)
	}
	return h
}
