// Package hopi implements the HOPI connection index for collections of
// linked XML documents (Schenkel, Theobald, Weikum: EDBT 2004 and ICDE
// 2005). HOPI materializes the transitive closure of a collection's
// element-level graph — parent/child edges plus intra- and
// inter-document links — as a compact 2-hop cover, enabling constant-
// lookup reachability tests, shortest-path ("distance") queries, and
// wildcard path expressions (//) that cross document boundaries.
//
// # Quick start
//
//	coll, _ := hopi.ParseCollection(files)
//	ix, _ := hopi.Build(coll, hopi.DefaultOptions())
//	a, _ := coll.DocByName("a.xml")
//	b, _ := coll.DocByName("b.xml")
//	connected := ix.Reaches(coll.ElemID(a, 0), coll.ElemID(b, 0))
//	authors, _ := ix.Query("//book//author")
//
// # Snapshots and batches
//
// An Index separates its read path from its write path so it can serve
// queries while being maintained — the online scenario of the paper's
// §6 experiments:
//
//   - Index.Snapshot returns an immutable *Snapshot carrying its own
//     query engine. All query methods (Reaches, Distance, Descendants,
//     Ancestors, Query, QueryRanked, QueryCtx) live on the snapshot;
//     the same-named methods on Index are thin wrappers that delegate
//     to the current snapshot. Snapshots are safe for unlimited
//     concurrent use and are never invalidated mid-query: a reader
//     keeps its view for as long as it likes while writers publish
//     newer states behind it.
//
//   - Maintenance goes through a Batch (InsertDocument, InsertXML,
//     InsertEdge, DeleteEdge, DeleteDocument, ModifyDocument, Rebuild)
//     applied with Index.Apply under an internal write lock. A new
//     snapshot is published once per batch, not once per call, at a
//     cost that follows what the batch changed. The per-operation
//     maintenance methods on Index remain as single-op batches for
//     compatibility.
//
// # Prepared queries, cursors, EXPLAIN
//
// Path expressions compile once with Prepare and execute as streaming
// cursors: Snapshot.Run (or Index.Run) returns a *Cursor whose final
// evaluation step stops early under QueryLimit (limit pushdown) and
// whose Token/QueryResume pair paginates a result set across requests.
// Tokens embed the snapshot epoch; maintenance retires them
// (ErrStaleToken). Snapshot.Explain reports the per-step execution
// plan. QueryCtx(ctx, expr, QueryLimit(10), QueryRanked()) remains as
// a thin wrapper over Prepare+Run — it polls ctx inside the evaluation
// loops and its limited result is exactly a prefix of the unlimited
// one. cmd/hopiserve exposes the whole API as an HTTP JSON service
// built on snapshots, with an LRU prepared-statement cache, paginated
// and NDJSON-streaming query endpoints, and GET /explain.
//
// The index can be persisted with Save/Open as a store of immutable
// compressed label segments (path+".segs") beside the encoded
// collection (path+".coll") — or, with Create / Open(path, Durable()),
// kept attached to that store as a live, crash-recoverable backend:
// Apply write-ahead logs every maintenance batch (path+".wal") before
// publishing it, Checkpoint seals the logged changes into a new segment
// and truncates the log, and a restart replays any log tail a crash
// left behind.
package hopi

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hopi/internal/core"
	"hopi/internal/partition"
	"hopi/internal/replication"
	"hopi/internal/segment"
)

// Infinite is the distance reported for unreachable element pairs.
const Infinite = ^uint32(0)

// Partitioner selects how the document-level graph is divided before
// per-partition 2-hop covers are computed.
type Partitioner = core.Partitioner

// Partitioner values.
const (
	// Whole builds one centralized cover (best compression, slowest
	// build — the paper's infeasible-at-scale baseline).
	Whole = core.PartWhole
	// SingleDoc uses one partition per document.
	SingleDoc = core.PartSingle
	// NodeCapped caps partitions by element count (original HOPI).
	NodeCapped = core.PartNodeCapped
	// ClosureBudget grows partitions until their transitive closure
	// reaches the connection budget (ICDE 2005, §4.3 — recommended).
	ClosureBudget = core.PartClosureBudget
)

// JoinAlgorithm selects how partition covers are merged.
type JoinAlgorithm = core.JoinAlgorithm

// JoinAlgorithm values.
const (
	// NewJoin is the structurally recursive PSG-based join (ICDE 2005,
	// §4.1 — recommended; an order of magnitude faster than OldJoin).
	NewJoin = core.JoinNewHBar
	// NewJoinFullPSG computes a full 2-hop cover over the PSG instead
	// of the cheaper link-target cover (ablation variant).
	NewJoinFullPSG = core.JoinNewFullPSG
	// OldJoin integrates cross-partition links one at a time (EDBT
	// 2004, §3.3 — the baseline).
	OldJoin = core.JoinOldIncremental
)

// WeightScheme selects document-level edge weights for partitioning.
type WeightScheme = partition.WeightScheme

// WeightScheme values.
const (
	// WeightLinks counts links between documents.
	WeightLinks = partition.WeightLinks
	// WeightAtimesD uses the skeleton-graph estimate A·D (connections
	// routed over a link).
	WeightAtimesD = partition.WeightAtimesD
	// WeightAplusD uses A+D (nodes connected over a link).
	WeightAplusD = partition.WeightAplusD
)

// Options configures Build. The zero value is not valid; start from
// DefaultOptions.
type Options = core.Options

// DefaultOptions returns the paper's recommended configuration: the
// closure-budget partitioner with link-count weights and the new PSG
// join.
func DefaultOptions() Options {
	return Options{
		Partitioner:   ClosureBudget,
		ClosureBudget: 1_000_000,
		Join:          NewJoin,
		Weights:       WeightLinks,
	}
}

// Index is a built HOPI index over a collection.
//
// The Index owns the live, mutable state; all mutation is serialized
// through Apply (the per-operation maintenance methods are single-op
// batches). Reads go through immutable snapshots — see Snapshot. Index
// methods that inspect the live state directly (Stats, Size, Labels,
// Validate, Separates, Save) take a read lock and are safe to call
// concurrently with Apply; the handle returned by Collection, however,
// aliases live state and must not be used concurrently with writes —
// use Snapshot().Collection() for that.
type Index struct {
	mu     sync.RWMutex // Apply takes the write side; live-state readers the read side
	snapMu sync.Mutex   // single-flights snapshot construction (never held with mu's write side)
	coll   *Collection
	ix     *core.Index
	cur    atomic.Pointer[Snapshot] // latest published snapshot, nil after a batch
	// last is the latest snapshot ever published, kept across batches:
	// the next snapshot derives its query engine from it. Read and
	// written by Snapshot under snapMu; reset to nil under mu's write
	// side when the live state is replaced wholesale (a follower
	// bootstrap), since derivation needs the same collection's history.
	last  *Snapshot
	epoch atomic.Uint64 // opaque version stamp; see newEpoch
	dur   *durableState // attached store backend, nil for in-memory indexes
	// seqEpoch marks the epoch as the durable WAL batch sequence
	// instead of a random per-instance counter; written under mu's
	// write side, read under either side. See Snapshot.Epoch.
	seqEpoch bool
	// scope is the replication-scope identity embedded in resume
	// tokens: random per instance for in-memory indexes, minted at
	// store creation and persisted for durable ones, adopted from the
	// primary's bootstrap image on followers. A token is only ever
	// honored by indexes of the same scope, so sequence-valued epochs
	// cannot collide across unrelated stores. Written under mu's write
	// side (or before the index is shared), read under either side.
	scope uint64
	// readOnly marks a replication follower: Apply refuses with
	// ErrReadOnlyReplica, all state changes arrive over the stream.
	// Immutable after construction.
	readOnly bool
	pub      *replication.Publisher // attached log-shipping publisher, nil otherwise
	fol      *replication.Follower  // replication source for followers, nil otherwise
	// watch is the live-query notifier, created lazily by the first
	// Watch call and torn down by Close; see watch.go.
	watch atomic.Pointer[watcherState]
	// met is the lazily created metric hub (see metrics.go); metMu
	// single-flights its construction.
	met   atomic.Pointer[indexMetrics]
	metMu sync.Mutex
}

// newEpoch seeds an in-memory index's version stamp. The epoch is
// bumped on every maintenance batch and embedded in resume tokens;
// seeding it randomly per index instance (rather than starting at
// zero) makes a token from a different index or an earlier process
// fail ErrStaleToken instead of silently resuming over different data
// — the counter would otherwise restart at zero and collide. Indexes
// with an attached durable store (and replication followers) use the
// WAL batch sequence instead, which makes tokens portable across
// replicas and restarts of the same store; see Snapshot.Epoch.
func newEpoch() uint64 { return rand.Uint64() }

// Build constructs a HOPI index for the collection. The collection is
// adopted as the index's live state: mutate it only through the
// index's maintenance API afterwards.
func Build(coll *Collection, opts Options) (*Index, error) {
	ix, err := core.Build(coll.c, opts)
	if err != nil {
		return nil, err
	}
	h := &Index{coll: coll, ix: ix, scope: newEpoch()}
	h.epoch.Store(newEpoch())
	return h, nil
}

// Snapshot returns the current immutable snapshot, cloning the live
// state on first use after a maintenance batch and reusing the cached
// snapshot until the next one. The returned snapshot remains valid (and
// unchanged) forever; queries against it never block writers.
func (ix *Index) Snapshot() *Snapshot {
	if s := ix.cur.Load(); s != nil {
		return s
	}
	// snapMu single-flights construction so concurrent first-readers
	// don't clone redundantly; the clone itself happens under the read
	// lock only, so it never blocks other live-state readers. The
	// publish happens while still holding the read lock: Apply cannot
	// run (and invalidate) between the clone and the store, so a stale
	// snapshot can never be cached past a batch.
	ix.snapMu.Lock()
	defer ix.snapMu.Unlock()
	if s := ix.cur.Load(); s != nil {
		return s
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	met := ix.metrics()
	start := time.Now()
	s := newSnapshot(ix.ix, ix.last, ix.epoch.Load(), ix.seqEpoch, ix.scope)
	s.met = met
	ix.last = s
	ix.cur.Store(s)
	met.snapshotPublish.ObserveSince(start)
	return s
}

// Collection returns the live collection. The handle aliases the
// index's mutable state: safe with the single-threaded call pattern of
// the original API, but under concurrent maintenance prefer
// Snapshot().Collection().
func (ix *Index) Collection() *Collection { return ix.coll }

// Stats returns build statistics (partitions, cover size, phase
// timings).
func (ix *Index) Stats() core.BuildStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Stats()
}

// Size returns the number of stored label entries |L|.
func (ix *Index) Size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Size()
}

// Reaches reports whether element u reaches element v over the
// ancestor/descendant/link axes. It reads the live state under the
// read lock — a point lookup, no snapshot clone; pin a Snapshot when
// several lookups must observe the same state.
func (ix *Index) Reaches(u, v ElemID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Reaches(u, v)
}

// Distance returns the shortest path length from u to v, or Infinite
// when v is unreachable. The index must be built with
// Options.WithDistance. Like Reaches it reads the live state.
func (ix *Index) Distance(u, v ElemID) (uint32, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Distance(u, v)
}

// Descendants returns all elements reachable from u, including u,
// reading the live state.
func (ix *Index) Descendants(u ElemID) []ElemID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Descendants(u)
}

// Ancestors returns all elements that reach u, including u, reading
// the live state.
func (ix *Index) Ancestors(u ElemID) []ElemID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Ancestors(u)
}

// Validate checks the index against a freshly computed ground truth;
// O(n²), intended for tests and diagnostics.
func (ix *Index) Validate() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Validate()
}

// Labels summarizes the current label distribution — watch it grow
// under maintenance churn and shrink again after Rebuild (§6).
func (ix *Index) Labels() core.LabelStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Labels()
}

// Core unwraps the internal index for the experiment harness; not part
// of the stable API and not synchronized against Apply.
func (ix *Index) Core() *core.Index { return ix.ix }

// --- queries ----------------------------------------------------------

// QueryResult is one element matching a path expression.
type QueryResult struct {
	Element ElemID
	Doc     string // owning document name
	Tag     string
	Score   float64 // 0 for unranked queries
	Path    []ElemID
}

// Query evaluates a path expression such as "//book//author" or
// "/bib/book/title" against the current snapshot. The // axis follows
// parent-child edges and all links, crossing document boundaries.
func (ix *Index) Query(expr string) ([]QueryResult, error) {
	return ix.Snapshot().Query(expr)
}

// QueryCtx evaluates a path expression against the current snapshot
// with cancellation and options; see Snapshot.QueryCtx.
func (ix *Index) QueryCtx(ctx context.Context, expr string, opts ...QueryOption) ([]QueryResult, error) {
	return ix.Snapshot().QueryCtx(ctx, expr, opts...)
}

// QueryRanked evaluates a path expression and ranks matches by
// connection length (XXL-style: closer matches score higher). Requires
// a distance-aware index.
func (ix *Index) QueryRanked(expr string) ([]QueryResult, error) {
	return ix.Snapshot().QueryRanked(expr)
}

// --- maintenance ------------------------------------------------------
//
// The per-operation methods below are compatibility wrappers: each one
// applies a single-op Batch. Under write-heavy load, prefer building a
// Batch and calling Apply once — the snapshot is rebuilt per batch.

// InsertDocument adds a new document to the collection and index.
// Attach its links afterwards with InsertEdge.
func (ix *Index) InsertDocument(d *Document) (DocID, error) {
	b := NewBatch()
	b.InsertDocument(d)
	res, err := ix.Apply(context.Background(), b)
	if err != nil {
		return 0, err
	}
	return res.Results[0].Doc, nil
}

// InsertEdge adds a link between two existing elements.
func (ix *Index) InsertEdge(from, to ElemID) error {
	b := NewBatch()
	b.InsertEdge(from, to)
	_, err := ix.Apply(context.Background(), b)
	return err
}

// DeleteDocument removes a document; it reports whether the Theorem 2
// fast path (separating document) applied.
func (ix *Index) DeleteDocument(doc DocID) (bool, error) {
	b := NewBatch()
	b.DeleteDocument(doc)
	res, err := ix.Apply(context.Background(), b)
	if err != nil {
		return false, err
	}
	return res.Results[0].FastPath, nil
}

// DeleteEdge removes a link.
func (ix *Index) DeleteEdge(from, to ElemID) error {
	b := NewBatch()
	b.DeleteEdge(from, to)
	_, err := ix.Apply(context.Background(), b)
	return err
}

// ModifyDocument replaces a document with a new version, re-attaching
// inter-document links; it returns the new document's ID.
func (ix *Index) ModifyDocument(doc DocID, newDoc *Document) (DocID, error) {
	b := NewBatch()
	b.ModifyDocument(doc, newDoc)
	res, err := ix.Apply(context.Background(), b)
	if err != nil {
		return 0, err
	}
	return res.Results[0].Doc, nil
}

// Separates reports whether the document separates the document-level
// graph — i.e. whether deleting it takes the fast path.
func (ix *Index) Separates(doc DocID) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ix.Separates(int(doc))
}

// Rebuild recomputes the index from scratch with its original options,
// restoring space efficiency after heavy maintenance.
func (ix *Index) Rebuild() error {
	b := NewBatch()
	b.Rebuild()
	_, err := ix.Apply(context.Background(), b)
	return err
}

// --- persistence ------------------------------------------------------

// Save persists the index as a segment store at path+".segs" — the
// complete label set sealed as one compressed segment, the LIN/LOUT
// tables with their forward and backward indexes of the paper's
// database deployment (§3.4) — and the collection to path+".coll".
// Save holds the read lock while it writes, so it is safe to call
// concurrently with Apply.
//
// On a durable index saving to its attached path, Save is a
// Checkpoint — one new segment holding the changes since the last
// one, not a full rewrite. Saving to any other path writes an
// independent full copy (a cold backup).
func (ix *Index) Save(path string) error {
	ix.mu.RLock()
	if ix.dur != nil && path == ix.dur.path {
		ix.mu.RUnlock()
		return ix.Checkpoint()
	}
	defer ix.mu.RUnlock()
	// the cold copy holds the complete label set as one segment
	cov := ix.ix.Cover()
	store, err := segment.CreateStore(path+segsSuffix, cov.WithDist, segment.Options{})
	if err != nil {
		return err
	}
	if _, err := store.Seal(0, cov.N(), int64(cov.Size()), cov.FullRecords()); err != nil {
		return err
	}
	return writeCollFile(path+collSuffix, ix.coll.c, 0, 0)
}

// Open loads an index saved with Save or Create. By default the
// returned index answers queries from the sealed segments (read
// through mmap) and leaves the files untouched; with the Durable
// option the store stays attached as the live backend — maintenance
// batches are write-ahead logged and sealed into it, and a WAL tail
// left by a crash is replayed first (see Create, Checkpoint, Close).
func Open(path string, opts ...OpenOption) (*Index, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.durable {
		return openDurable(path, &cfg)
	}
	store, err := openStore(path, segment.Options{})
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path + collSuffix)
	if err != nil {
		return nil, fmt.Errorf("hopi: open collection: %w", err)
	}
	coll, err := DecodeCollection(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	h := &Index{coll: coll, scope: newEpoch()}
	h.ix = core.NewFromCover(coll.c, h.sealedCover(store))
	h.epoch.Store(newEpoch())
	return h, nil
}
