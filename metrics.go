package hopi

import (
	"strconv"
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
// already tracks — collection and cover sizes, replication lag,
// segment stack shape, watch sessions — is sampled at scrape time
// through Gauge/CounterFuncs, each from an O(1) or metadata-only read,
// never a walk of the cover. Servers attach the registry as a
// sub-registry of their process registry and serve the whole tree on
// GET /metrics as text and on GET /stats as JSON.

// indexMetrics bundles the Index's inline metric handles.
type indexMetrics struct {
	reg *obs.Registry
	// queryLatency is labeled by the evaluation mode of the step that
	// produced the results (see query.Plan.DominantMode).
	queryLatency *obs.HistogramVec
	// queryLabelEntries sums the label entries the closed cursors' plans
	// read (query.Plan.LabelEntries).
	queryLabelEntries *obs.Counter
	// queryWalkNodes sums the nodes the closed cursors' link-arc walks
	// visited (query.Plan.WalkNodes).
	queryWalkNodes *obs.Counter
	applySeconds   *obs.Histogram
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
	// compactions counts the stack compactions of every store the index
	// attaches, so a follower's image install does not restart it.
	compactions *obs.Counter
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
		queryLabelEntries: r.Counter("hopi_query_label_entries_total",
			"Label entries (Lout and Lin) the query cursors read, added at Close: the run's summed per-step postings."),
		queryWalkNodes: r.Counter("hopi_query_walk_nodes_total",
			"Nodes the query cursors' // candidate tests walked over the collection's link arcs, added at Close: the run's summed per-step walked nodes."),
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
			"Label lookups that missed the decode cache and read a segment block."),
		segScanned: r.Counter("hopi_segment_block_records_scanned_total",
			"Block records walked by the lookups that missed the decode cache."),
		segErrs: r.Counter("hopi_segment_read_errors_total",
			"Sealed reads that hit an I/O error and were served as empty (pread mode only)."),
		compactions: r.Counter("hopi_segment_compactions_total",
			"Completed stack compactions, across every store the index attached."),
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
	r.GaugeFunc("hopi_build_distinct_lists",
		"Distinct Lin and Lout lists the build behind the served cover stored, each once (0 for an index opened from a store or built by the old join).",
		func() float64 { return float64(ix.Stats().DistinctLists) })

	// What the index holds, from the live state under its read lock.
	for _, g := range []struct {
		name, help string
		of         func() int
	}{
		{"hopi_index_docs", "Live documents.", func() int { return ix.coll.NumDocs() }},
		{"hopi_index_elements", "Elements of live documents.", func() int { return ix.coll.NumElements() }},
		{"hopi_index_links", "Links of live documents, intra plus inter.", func() int { return ix.coll.NumLinks() }},
		{"hopi_index_label_entries", "Lin plus Lout entries of the cover.", func() int { return ix.ix.Cover().Size() }},
	} {
		r.GaugeFunc(g.name, g.help, func() float64 {
			ix.mu.RLock()
			defer ix.mu.RUnlock()
			return float64(g.of())
		})
	}
	r.GaugeFunc("hopi_index_durable",
		"Whether the index has an attached store backend (1/0).",
		func() float64 { return b2f(ix.Durable()) })
	r.Info("hopi_index_info",
		"Identity of the served state: replication role, the scope and epoch resume tokens are bound to (seq_epoch: the epoch is a WAL sequence), and a replica's primary.",
		[]string{"role", "scope", "epoch", "seq_epoch", "primary"},
		func() []string {
			rs := ix.ReplicaStatus()
			ix.mu.RLock()
			defer ix.mu.RUnlock()
			return []string{rs.Role, strconv.FormatUint(ix.scope, 10), strconv.FormatUint(ix.epoch.Load(), 10),
				strconv.FormatBool(ix.seqEpoch), rs.PrimaryURL}
		})

	r.GaugeFunc("hopi_wal_size_bytes",
		"Current write-ahead log size; drops to 0 at each checkpoint.",
		func() float64 {
			n, _, _ := ix.WALSize()
			return float64(n)
		})

	// Replication: sampled from ReplicaStatus so primary and follower
	// report through the same families.
	for _, g := range []struct {
		name, help string
		of         func(ReplicaStatus) float64
	}{
		{"hopi_replication_lag_batches", "Committed batches the served state is behind the primary (0 on primaries).",
			func(st ReplicaStatus) float64 { return float64(st.Lag) }},
		{"hopi_replication_applied_seq", "Durable batch sequence the served state reflects.",
			func(st ReplicaStatus) float64 { return float64(st.AppliedSeq) }},
		{"hopi_replication_primary_seq", "The primary's committed batch sequence as last observed (the applied sequence on primaries).",
			func(st ReplicaStatus) float64 { return float64(st.PrimarySeq) }},
		{"hopi_replication_connected", "On a replica, whether the stream to the primary is open (1/0); 1 on primaries.",
			func(st ReplicaStatus) float64 { return b2f(st.Role != "replica" || st.Connected) }},
		{"hopi_replication_follower_streams", "Currently connected follower streams (primaries only).",
			func(st ReplicaStatus) float64 { return float64(st.FollowerStreams) }},
	} {
		r.GaugeFunc(g.name, g.help, func() float64 { return g.of(ix.ReplicaStatus()) })
	}
	r.CounterFunc("hopi_replication_batches_shipped_total",
		"Batches handed to follower streams by the publisher.",
		func() float64 { return float64(ix.shippedBatches()) })

	// Segment store shape, from metadata only; all zero on an index that
	// never touched a store (Build without Create).
	for _, g := range []struct {
		name, help string
		of         func(SegmentStats) float64
	}{
		{"hopi_segment_enabled", "Whether the index reads from a segment store (1/0).",
			func(st SegmentStats) float64 { return b2f(st.Enabled) }},
		{"hopi_segment_stack_depth", "Sealed segment files in the current stack.",
			func(st SegmentStats) float64 { return float64(st.Segments) }},
		{"hopi_segment_delta_entries", "In-memory delta size (adds plus tombstones); sealing resets it.",
			func(st SegmentStats) float64 { return float64(st.DeltaEntries) }},
		{"hopi_segment_sealed_bytes", "On-disk size of the sealed segment stack.",
			func(st SegmentStats) float64 { return float64(st.SealedBytes) }},
		{"hopi_segment_sealed_posts", "Label postings in sealed files, shadowed ones included (compaction drops those).",
			func(st SegmentStats) float64 { return float64(st.SealedPosts) }},
		{"hopi_segment_sealed_tombstones", "Sealed tombstones awaiting compaction.",
			func(st SegmentStats) float64 { return float64(st.SealedTombs) }},
		{"hopi_segment_live_entries", "Live label entries the store's manifest records as of its last seal.",
			func(st SegmentStats) float64 { return float64(st.LiveEntries) }},
		{"hopi_segment_sealed_seq", "WAL sequence the sealed state reflects.",
			func(st SegmentStats) float64 { return float64(st.SealedSeq) }},
		{"hopi_segment_compaction_backlog", "Segments over the compaction threshold (0 when within bounds).",
			func(st SegmentStats) float64 { return float64(st.CompactionBacklog) }},
		{"hopi_segment_mmapped", "Whether every sealed segment reads through mmap (1/0; 0 when any fell back to pread).",
			func(st SegmentStats) float64 { return b2f(st.Mmapped) }},
	} {
		r.GaugeFunc(g.name, g.help, func() float64 { return g.of(ix.SegmentStats()) })
	}

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
	evals := "Notifier evaluation rounds, by strategy: a full re-run and diff, or a delta-seeded incremental evaluation."
	r.CounterFuncVec("hopi_watch_evaluations_total", evals, []string{"strategy"}, []string{"full"},
		func() float64 { return float64(ix.WatchStats().FullRuns) })
	r.CounterFuncVec("hopi_watch_evaluations_total", evals, []string{"strategy"}, []string{"incremental"},
		func() float64 { return float64(ix.WatchStats().IncrementalDeltas) })
	return m
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
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
