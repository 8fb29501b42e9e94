package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json's
// end_to_end and per_layer lists are generated from this table
// (-manifest) and the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	E2E    bool
}

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound, E2E: true}
}

// layer names a per-layer metric; README.md says which end-to-end metric
// each one is expected to move, and on which workload.
func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// Every workload prints every end-to-end metric: each one builds its
// index, then serves a read-only, a mixed and a write-only window. All
// times are reference time (boxclock.go). The timed ones carry the widest
// bound the contract allows: over ten seeds they spread by 2-10% on one
// workload or another (README, Seed state), and a bound should be three
// times the spread. The sizes repeat exactly.
var metricDefs = []metricDef{
	e2e("setup_s", "s", "lower", 0.25),
	e2e("peak_rss_mb", "MB", "lower", 0.25),
	e2e("build_s", "s", "lower", 0.25),
	e2e("cover_entries", "count", "lower", 0.02),
	e2e("bytes_per_label", "B", "lower", 0.05),
	e2e("ro_query_qps", "1/s", "higher", 0.25),
	e2e("query_qps", "1/s", "higher", 0.25),
	e2e("apply_ms", "ms", "lower", 0.25),

	// build-dblp
	layer("partition.closure_budget_s", "s", "lower"),
	layer("twohop.partition_covers_s", "s", "lower"),
	layer("twohop.partition_covers_cpu_s", "s", "lower"),
	layer("twohop.pool_speedup", "x", "higher"),
	layer("psg.join_new_s", "s", "lower"),
	layer("core.build_unattributed_s", "s", "lower"),
	layer("partition.parts", "count", "lower"),
	layer("partition.cross_links", "count", "lower"),
	layer("twohop.partition_entries", "count", "lower"),
	layer("psg.join_old_s", "s", "lower"),
	layer("psg.join_old_entries", "count", "lower"),

	// query-mem
	layer("twohop.reach_probe_ns", "ns", "lower"),
	layer("twohop.distance_probe_ns", "ns", "lower"),
	layer("query.stream_limit10_ms", "ms", "lower"),
	layer("query.topk10_ms", "ms", "lower"),
	layer("hopi.prepare_us", "us", "lower"),
	layer("hopi.cursor_overhead_us", "us", "lower"),
	layer("hopi.page_resume_ms", "ms", "lower"),
	layer("query.semijoin_full_ms", "ms", "lower"),
	layer("query.wildcard_full_ms", "ms", "lower"),
	layer("query.threestep_full_ms", "ms", "lower"),
	layer("query.ranked_full_ms", "ms", "lower"),
	layer("query.rows_examined_per_result", "count", "lower"),
	layer("query.refresh_ms", "ms", "lower"),
	layer("hopiserve.http_query_ms", "ms", "lower"),
	layer("hopiserve.http_overhead_ms", "ms", "lower"),

	// maintain-segments
	layer("core.apply_insert_ms", "ms", "lower"),
	layer("core.apply_link_ms", "ms", "lower"),
	layer("core.apply_unlink_ms", "ms", "lower"),
	layer("core.apply_delete_fast_ms", "ms", "lower"),
	layer("core.apply_modify_ms", "ms", "lower"),
	layer("core.separates_test_us", "us", "lower"),
	layer("core.general_delete_s", "s", "lower"),
	layer("core.rebuild_s", "s", "lower"),
	layer("core.general_delete_vs_rebuild", "x", "lower"),
	layer("storage.wal_append_ms", "ms", "lower"),
	layer("storage.wal_bytes_per_batch", "B", "lower"),
	layer("hopi.durable_overhead_ms", "ms", "lower"),
	layer("hopi.snapshot_publish_ms", "ms", "lower"),
	layer("segment.seal_ms", "ms", "lower"),
	layer("segment.seals", "count", "lower"),
	layer("segment.compactions", "count", "lower"),
	layer("segment.bytes_per_label", "B", "lower"),
	layer("segment.open_ms", "ms", "lower"),
	layer("replication.bootstrap_s", "s", "lower"),
	layer("replication.apply_stall_max_ms", "ms", "lower"),
	layer("replication.lag_p50_ms", "ms", "lower"),
	layer("watch.notify_p50_ms", "ms", "lower"),
	layer("watch.delta_bytes_per_notify", "B", "lower"),

	// router-4shard
	layer("shardrouter.step_rpcs_per_query", "count", "lower"),
	layer("shardrouter.closure_rpcs_per_query", "count", "lower"),
	layer("shardrouter.deliver_rpcs_per_query", "count", "lower"),
	layer("shardrouter.step_rpc_ms", "ms", "lower"),
	layer("shardrouter.closure_rpc_ms", "ms", "lower"),
	layer("shardrouter.deliver_rpc_ms", "ms", "lower"),
	layer("shardrouter.router_self_ms", "ms", "lower"),
	layer("shardrouter.step_rpcs_per_query_ro", "count", "lower"),
	layer("shardrouter.closure_rpcs_per_query_ro", "count", "lower"),
	layer("shardrouter.router_self_ms_ro", "ms", "lower"),
	layer("shardrouter.closure_cache_hit_rate_ro", "%", "higher"),
	layer("shardrouter.closure_cache_hit_rate_mixed", "%", "higher"),
	layer("shardrouter.attempts_per_query_mixed", "count", "lower"),
	layer("shardrouter.mixed_over_ro_qps", "x", "higher"),
	layer("shardrouter.insert_ms", "ms", "lower"),
	layer("hopi.shard_apply_ms", "ms", "lower"),
	layer("xmlmodel.parse_us", "us", "lower"),

	// named by the issue as end-to-end, but measurable on one workload
	// only, so the contract's one-list-for-all-workloads puts them here
	layer("general_delete_s", "s", "lower"),
	layer("reopen_s", "s", "lower"),
	layer("sealed_ro_query_qps", "1/s", "higher"),
	// medians of one operation type and tails: between runs of the same
	// code they move by up to 25% on some workload (-calibrate), about
	// twice as much as the throughputs, so they cannot carry a bound
	layer("ro_query_p50_ms", "ms", "lower"),
	layer("query_p50_ms", "ms", "lower"),
	layer("apply_p50_ms", "ms", "lower"),
	layer("ro_query_p90_ms", "ms", "lower"),
	layer("ro_query_p99_ms", "ms", "lower"),
	layer("query_p90_ms", "ms", "lower"),
	layer("apply_p90_ms", "ms", "lower"),
	layer("generator_lateness_p90_ms", "ms", "lower"),
	layer("apply_per_s", "1/s", "higher"),
	layer("apply_due_p50_ms", "ms", "lower"),
	layer("apply_due_p90_ms", "ms", "lower"),
	layer("read_scaling_2_clients", "x", "higher"),
	layer("trace_overhead_pct", "%", "lower"),
	// how much slower than the quiet reference box the run's box was
	layer("box.slowdown", "x", "lower"),
}

func defsOf(e2e bool) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.E2E == e2e {
			out = append(out, d)
		}
	}
	return out
}

// measured is one metric value with the number of samples behind it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// run carries the state of one workload run.
type run struct {
	cfg   config
	clock *boxClock
	rec   *recorder // nil when untraced

	mu       sync.Mutex
	vals     map[string]measured
	findings []string

	attempted atomic.Int64
	failed    atomic.Int64
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, clock: sharedClock(), vals: map[string]measured{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range metricDefs {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a metric; n is the number of samples behind the value.
func (r *run) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric not in metricDefs: " + name)
	}
	r.mu.Lock()
	r.vals[name] = measured{Value: v, Unit: unit, N: n}
	r.mu.Unlock()
}

func (r *run) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vals[name].Value
}

// finding notes something the numbers alone do not say (a failed
// reconciliation, a skipped leg); printed and kept in the trace file.
func (r *run) finding(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	r.findings = append(r.findings, msg)
	r.mu.Unlock()
	logf("finding: %s", msg)
}

// check counts one oracle comparison; a mismatch is a failed op.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failed operation and logs the first few.
func (r *run) fail(format string, args ...any) {
	if r.failed.Add(1) <= 5 {
		logf("FAILED: "+format, args...)
	}
}

// lats is a set of latency samples.
type lats []time.Duration

func (l lats) sorted() lats {
	s := append(lats(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pctMs returns the p-th percentile of sorted samples in milliseconds.
func (l lats) pctMs(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	return ms(l[int(p*float64(len(l)-1))])
}

func (l lats) meanMs() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l {
		sum += d
	}
	return ms(sum) / float64(len(l))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
