package hopi

import (
	"time"

	"hopi/internal/core"
	"hopi/internal/obs"
	"hopi/internal/storage"
)

// Index observability
//
// Every Index owns a lazily created obs.Registry reachable through
// Metrics(). Hot paths record into pre-registered handles (query
// latency by evaluation mode, Apply latency, WAL append/fsync,
// checkpoint/seal/compaction durations); state another subsystem
// already tracks — replication lag, segment stack shape, watch
// sessions — is sampled at scrape time through Gauge/CounterFuncs, so
// the registry never double-counts what /stats reports. Servers attach
// the registry as a sub-registry of their process registry and expose
// the whole tree on GET /metrics.

// indexMetrics bundles the Index's inline metric handles.
type indexMetrics struct {
	reg *obs.Registry
	// queryLatency is labeled by the evaluation mode of the step that
	// produced the results (see query.Plan.DominantMode).
	queryLatency *obs.HistogramVec
	applySeconds *obs.Histogram
	// snapshotPublish times Snapshot's miss path: the first read after
	// a batch pays it, so it is the write cost a reader sees.
	snapshotPublish *obs.Histogram
	maintSeconds    *obs.HistogramVec // op: seal | compact
	walAppend       *obs.Histogram
	walFsync        *obs.Histogram
	walBytes        *obs.Counter
	// bootstraps counts the state images a follower installed.
	bootstraps *obs.Counter
	// The read counters of every sealed base the index installs (see
	// Index.newBase): decode-cache misses, the block records they
	// walked, and swallowed decode errors.
	segMisses, segScanned, segErrs *obs.Counter
	// shardMemo counts the shard RPCs' snapshot-memo lookups, by table
	// ("closure", "delivery"); see shardstep.go.
	shardMemo map[string]memoCounter
}

// memoCounter is one table's hit and miss counters.
type memoCounter struct{ hits, misses *obs.Counter }

func (c memoCounter) count(hit bool) {
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
}

// Metrics returns the index's metric registry, for attaching to a
// process-level registry served on /metrics. The registry is created
// on first use and lives for the index's lifetime.
func (ix *Index) Metrics() *obs.Registry { return ix.metrics().reg }

func (ix *Index) metrics() *indexMetrics {
	if m := ix.met.Load(); m != nil {
		return m
	}
	ix.metMu.Lock()
	defer ix.metMu.Unlock()
	if m := ix.met.Load(); m != nil {
		return m
	}
	m := newIndexMetrics(ix)
	ix.met.Store(m)
	return m
}

func newIndexMetrics(ix *Index) *indexMetrics {
	r := obs.NewRegistry()
	m := &indexMetrics{
		reg: r,
		queryLatency: r.HistogramVec("hopi_query_seconds",
			"Query cursor latency from Run to Close, by final-step evaluation mode.",
			obs.DefLatencyBuckets, "mode"),
		applySeconds: r.Histogram("hopi_apply_seconds",
			"Maintenance batch latency through Apply, commit included.",
			obs.DefLatencyBuckets),
		snapshotPublish: r.Histogram("hopi_snapshot_publish_seconds",
			"Snapshot publication latency: the clone and engine derivation the first read after a batch pays.",
			obs.DefLatencyBuckets),
		maintSeconds: r.HistogramVec("hopi_maintenance_seconds",
			"Durable maintenance durations: segment seals (checkpoints) and stack compactions.",
			obs.DefLatencyBuckets, "op"),
		walAppend: r.Histogram("hopi_wal_append_seconds",
			"WAL record append latency, fsync included.",
			obs.DefSyncBuckets),
		walFsync: r.Histogram("hopi_wal_fsync_seconds",
			"fsync portion of each WAL append (0 on a replica, whose log syncs once per burst of batches).",
			obs.DefSyncBuckets),
		walBytes: r.Counter("hopi_wal_append_bytes_total",
			"Bytes appended to the WAL, record framing included."),
		bootstraps: r.Counter("hopi_replication_bootstraps_total",
			"State images a follower installed: its first bootstrap and every reset; a restart that resumes from its store adds none."),
		// The decode cache above the sealed stack. Both move only on a
		// miss; misses per query is this over hopi_query_seconds_count.
		segMisses: r.Counter("hopi_segment_cache_misses_total",
			"Label and owner lookups that missed the decode cache and read a segment block."),
		segScanned: r.Counter("hopi_segment_block_records_scanned_total",
			"Block records walked by the lookups that missed the decode cache."),
		segErrs:   new(obs.Counter),
		shardMemo: map[string]memoCounter{},
	}
	memo := r.CounterVec("hopi_shard_memo_lookups_total",
		"Shard-RPC lookups of a snapshot's memoized endpoint closures and delivery tables, by table and result.",
		"table", "result")
	for _, table := range []string{"closure", "delivery"} {
		m.shardMemo[table] = memoCounter{hits: memo.With(table, "hit"), misses: memo.With(table, "miss")}
	}

	// The phases of the build behind the served cover, so a build time
	// splits into its phases from /metrics alone.
	for _, ph := range []struct {
		name string
		of   func(core.BuildStats) time.Duration
	}{
		{"partition", func(st core.BuildStats) time.Duration { return st.PartitionTime }},
		{"covers", func(st core.BuildStats) time.Duration { return st.CoverTime }},
		{"join", func(st core.BuildStats) time.Duration { return st.JoinTime }},
	} {
		r.GaugeFuncVec("hopi_build_phase_seconds",
			"Wall time of each phase of the index's build: partition, covers, join (0 for an index opened from a store).",
			[]string{"phase"}, []string{ph.name},
			func() float64 { return ph.of(ix.Stats()).Seconds() })
	}

	r.GaugeFunc("hopi_wal_size_bytes",
		"Current write-ahead log size; drops to 0 at each checkpoint.",
		func() float64 {
			n, _, _ := ix.WALSize()
			return float64(n)
		})

	// Replication: sampled from ReplicaStatus so primary and follower
	// report through the same families.
	r.GaugeFunc("hopi_replication_lag_batches",
		"Committed batches the served state is behind the primary (0 on primaries).",
		func() float64 { return float64(ix.ReplicaStatus().Lag) })
	r.GaugeFunc("hopi_replication_applied_seq",
		"Durable batch sequence the served state reflects.",
		func() float64 { return float64(ix.ReplicaStatus().AppliedSeq) })
	r.GaugeFunc("hopi_replication_connected",
		"On a replica, whether the stream to the primary is open (1/0); 1 on primaries.",
		func() float64 {
			st := ix.ReplicaStatus()
			if st.Role == "replica" && !st.Connected {
				return 0
			}
			return 1
		})
	r.GaugeFunc("hopi_replication_follower_streams",
		"Currently connected follower streams (primaries only).",
		func() float64 { return float64(ix.ReplicaStatus().FollowerStreams) })
	r.CounterFunc("hopi_replication_batches_shipped_total",
		"Batches handed to follower streams by the publisher.",
		func() float64 { return float64(ix.shippedBatches()) })

	// Segment store shape; all zero on an index that never touched a
	// store (Build without Create).
	r.GaugeFunc("hopi_segment_stack_depth",
		"Sealed segment files in the current stack.",
		func() float64 { return float64(ix.SegmentStats().Segments) })
	r.GaugeFunc("hopi_segment_delta_entries",
		"In-memory delta size (adds plus tombstones); sealing resets it.",
		func() float64 { return float64(ix.SegmentStats().DeltaEntries) })
	r.GaugeFunc("hopi_segment_sealed_bytes",
		"On-disk size of the sealed segment stack.",
		func() float64 { return float64(ix.SegmentStats().SealedBytes) })
	r.GaugeFunc("hopi_segment_compaction_backlog",
		"Segments over the compaction threshold (0 when within bounds).",
		func() float64 { return float64(ix.SegmentStats().CompactionBacklog) })
	r.CounterFunc("hopi_segment_compactions_total",
		"Completed stack compactions.",
		func() float64 { return float64(ix.SegmentStats().Compactions) })

	// Live-query watch rates.
	r.GaugeFunc("hopi_watch_sessions",
		"Live watch subscriptions.",
		func() float64 { return float64(ix.WatchStats().Sessions) })
	r.GaugeFunc("hopi_watch_queued_deltas",
		"Watch sessions with an undelivered pending delta.",
		func() float64 { return float64(ix.WatchStats().QueuedDeltas) })
	r.CounterFunc("hopi_watch_delivered_total",
		"Watch events handed to consumers.",
		func() float64 { return float64(ix.WatchStats().Delivered) })
	r.CounterFunc("hopi_watch_coalesced_total",
		"Maintenance batches merged into an already-pending watch delta.",
		func() float64 { return float64(ix.WatchStats().Coalesced) })
	r.CounterFunc("hopi_watch_evictions_total",
		"Slow watch consumers evicted with a resume epoch.",
		func() float64 { return float64(ix.WatchStats().Evictions) })
	return m
}

// shippedBatches samples the attached publisher's shipped count, 0
// when the index does not publish.
func (ix *Index) shippedBatches() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.pub == nil {
		return 0
	}
	return ix.pub.Shipped()
}

// wireWAL attaches append/fsync timing to a freshly opened WAL. Called
// once per durable attach, before the WAL is shared.
func (ix *Index) wireWAL(w *storage.WAL) {
	m := ix.metrics()
	w.OnAppend = func(total, fsync time.Duration, bytes int) {
		m.walAppend.Observe(total.Seconds())
		m.walFsync.Observe(fsync.Seconds())
		m.walBytes.Add(uint64(bytes))
	}
}
