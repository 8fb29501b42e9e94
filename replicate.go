package hopi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"hopi/internal/core"
	"hopi/internal/replication"
	"hopi/internal/segment"
	"hopi/internal/storage"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// Replication
//
// A durable primary ships its committed WAL batches to read-only
// followers over HTTP: StartPublisher attaches a log-shipping
// publisher to the index's commit path and exposes the stream as an
// http.Handler (mount it at GET /repl/stream); Follow dials that
// endpoint and returns a read-only *Index that bootstraps from a full
// state image, replays each committed batch as it arrives, and
// republishes a fresh snapshot per batch. Sequence numbers on the wire
// are the primary's durable WAL batch sequences, and follower epochs
// equal their applied sequence — so a resume token issued by one
// replica resumes on any other replica that has applied the same
// batch (see Snapshot.Epoch and StaleTokenError).

// ErrReadOnlyReplica is returned by maintenance entry points of a
// follower index (Follow): all state changes arrive over the
// replication stream; writes go to the primary.
var ErrReadOnlyReplica = errors.New("hopi: read-only replica")

// --- primary side -----------------------------------------------------

// Publisher streams a durable index's committed batches to followers.
// It implements http.Handler for the log-shipping endpoint
// (GET /repl/stream?from=<seq>, a stream of CRC-framed records whose
// batches are the WAL's own bytes). Obtain one with
// Index.StartPublisher.
type Publisher struct {
	p *replication.Publisher
}

// PublishOption configures StartPublisher.
type PublishOption func(*replication.PublisherOptions)

// PublishTail bounds the in-memory batch tail retained for connected
// followers (default 1024 batches). Followers lagging past it are
// served from the WAL, or re-bootstrapped from a snapshot image.
func PublishTail(batches int) PublishOption {
	return func(o *replication.PublisherOptions) { o.TailBatches = batches }
}

// PublishHeartbeat sets the idle-stream heartbeat interval (default
// 3s). Heartbeats carry the primary's committed sequence, from which
// followers compute their replication lag.
func PublishHeartbeat(d time.Duration) PublishOption {
	return func(o *replication.PublisherOptions) { o.Heartbeat = d }
}

// StartPublisher attaches a log-shipping publisher to a durable index:
// from now on every batch committed by Apply is also handed to the
// publisher, which retains a bounded in-memory tail and serves
// follower streams. Lagging followers are fed from the WAL file; when
// a checkpoint has truncated the batches they need, they are reset
// with a full snapshot image. The index must be durable (Create, or
// Open with Durable) — the wire sequence numbers are the WAL's.
func (ix *Index) StartPublisher(opts ...PublishOption) (*Publisher, error) {
	var po replication.PublisherOptions
	for _, o := range opts {
		o(&po)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.readOnly {
		return nil, errors.New("hopi: a follower cannot publish (chain replication is not supported)")
	}
	if ix.dur == nil {
		return nil, errors.New("hopi: replication requires a durable index (Create, or Open with Durable)")
	}
	if ix.pub != nil {
		return nil, errors.New("hopi: publisher already started")
	}
	p := replication.NewPublisher(&replSource{ix: ix}, ix.dur.nextSeq-1, po)
	ix.pub = p
	return &Publisher{p: p}, nil
}

// ServeHTTP serves one follower stream; mount the publisher at
// GET /repl/stream.
func (p *Publisher) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.p.ServeHTTP(w, r) }

// LastSeq returns the last committed batch sequence the publisher has
// seen.
func (p *Publisher) LastSeq() uint64 { return p.p.LastSeq() }

// ActiveStreams returns the number of currently connected follower
// streams.
func (p *Publisher) ActiveStreams() int64 { return p.p.ActiveStreams() }

// Shipped returns the total number of batch records written to
// followers.
func (p *Publisher) Shipped() uint64 { return p.p.Shipped() }

// Close terminates the follower streams. The index itself stays
// usable; Index.Close also closes an attached publisher.
func (p *Publisher) Close() { p.p.Close() }

// replSource adapts the index to the publisher's Source interface.
// Both methods read under the index's read lock, so the images and WAL
// reads they produce are consistent points of the commit history.
type replSource struct {
	ix *Index
}

func (s *replSource) Image() (*replication.Image, error) {
	ix := s.ix
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d := ix.dur
	if d == nil {
		return nil, errors.New("hopi: publisher detached from its store")
	}
	if d.err != nil {
		// the in-memory state may be ahead of, or differently shaped from,
		// what the store and the log hold: no consistent image exists
		return nil, fmt.Errorf("hopi: durable backend failed earlier, reopen the index: %w", d.err)
	}
	seq := d.nextSeq - 1
	var buf bytes.Buffer
	if err := ix.coll.c.EncodeWithMeta(&buf, seq, ix.scope); err != nil {
		return nil, err
	}
	// Ship the sealed segment files verbatim plus the unsealed in-memory
	// delta as a replayable op tail. The lock is held only for the
	// collection encode and the O(delta) flattening — the label payload
	// is the mmap'd bytes themselves, captured by reference here and
	// serialized by the stream writer after the lock is released.
	// Compaction may unlink the files meanwhile; the pinned mappings keep
	// the bytes alive. A healthy primary's cover is always in segment
	// mode here: a Rebuild reseals before its Apply returns.
	_, n, withDist, live, files, err := d.segs.ImageFiles(d.segs.Current())
	if err != nil {
		return nil, err
	}
	segFiles := make([]replication.SegFile, len(files))
	for i, f := range files {
		segFiles[i] = replication.SegFile{Name: f.Name, Data: f.Data}
	}
	return &replication.Image{
		Seq:      seq,
		Scope:    ix.scope,
		WithDist: withDist,
		Coll:     buf.Bytes(),
		Ops:      ix.ix.Cover().DeltaOps(),
		N:        n,
		Live:     live,
		Files:    segFiles,
	}, nil
}

func (s *replSource) WALTail(from uint64) ([]storage.WALRecord, bool, error) {
	ix := s.ix
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.dur == nil {
		return nil, false, nil
	}
	return ix.dur.wal.BatchesFrom(from)
}

// --- follower side ----------------------------------------------------

type followConfig struct {
	timeout time.Duration
	dir     string
	fo      replication.FollowerOptions
}

// FollowOption configures Follow.
type FollowOption func(*followConfig)

// FollowTimeout bounds how long Follow waits for the initial bootstrap
// image before giving up (default 30s).
func FollowTimeout(d time.Duration) FollowOption {
	return func(c *followConfig) { c.timeout = d }
}

// FollowDir sets the directory under which a follower materializes
// the segment store its primary ships (one fresh subdirectory per
// bootstrap). Defaults to the system temp directory;
// the follower removes its subdirectories on Close.
func FollowDir(dir string) FollowOption {
	return func(c *followConfig) { c.dir = dir }
}

// FollowClient sets the HTTP client used for the replication stream.
// The stream is long-lived; the client must not set an overall request
// timeout.
func FollowClient(client *http.Client) FollowOption {
	return func(c *followConfig) { c.fo.Client = client }
}

// FollowReconnect bounds the reconnect backoff after a dropped stream
// (defaults 100ms / 5s).
func FollowReconnect(min, max time.Duration) FollowOption {
	return func(c *followConfig) { c.fo.BackoffMin, c.fo.BackoffMax = min, max }
}

// Follow connects to a primary's replication endpoint (the URL the
// primary's Publisher is mounted at, e.g.
// "http://primary:8080/repl/stream") and returns a read-only replica
// Index: it bootstraps from the primary's state image, then replays
// every committed batch as it is shipped, publishing a fresh snapshot
// per batch. Queries, cursors, and EXPLAIN work exactly as on any
// index; Apply (and the per-op maintenance wrappers) fail with
// ErrReadOnlyReplica. The follower reconnects with backoff after a
// dropped stream and resumes from its last applied sequence;
// ReplicaStatus reports its position and lag. Close stops replication.
//
// Follow blocks until the initial bootstrap completes (FollowTimeout).
func Follow(url string, opts ...FollowOption) (*Index, error) {
	cfg := followConfig{timeout: 30 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	ix := &Index{readOnly: true, seqEpoch: true}
	f := replication.NewFollower(url, &replTarget{ix: ix, dir: cfg.dir}, cfg.fo)
	ix.fol = f
	f.Start()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		st := f.Status()
		f.Stop()
		if st.LastError != "" {
			return nil, fmt.Errorf("hopi: follow %s: %w (last stream error: %s)", url, err, st.LastError)
		}
		return nil, fmt.Errorf("hopi: follow %s: %w", url, err)
	}
	return ix, nil
}

// replTarget adapts the index to the follower's Target interface. The
// follower calls from a single goroutine; each call takes the write
// lock, so replays serialize with readers exactly like Apply does on a
// primary.
type replTarget struct {
	ix    *Index
	dir   string         // base directory for adopted segment stores
	store *segment.Store // adopted sealed store; nil once a local seal failed
}

func (t *replTarget) Bootstrap(img *replication.Image) error {
	c, _, err := xmlmodel.DecodeCollectionSeq(bytes.NewReader(img.Coll))
	if err != nil {
		return err
	}
	// Materialize the shipped files as a local store and adopt them by
	// mmap — no label is re-encoded on either side. The residual Ops
	// tail (the primary's unsealed delta) replays on top, bringing the
	// cover to img.Seq.
	dir, err := os.MkdirTemp(t.dir, "hopi-follower-*")
	if err != nil {
		return err
	}
	clean := func() { os.RemoveAll(dir) }
	files := make([]segment.NamedFile, len(img.Files))
	for i, f := range img.Files {
		files[i] = segment.NamedFile{Name: f.Name, Data: f.Data}
	}
	store, err := segment.InstallStore(dir, img.Seq, img.N, img.WithDist, img.Live, files, segment.Options{})
	if err != nil {
		clean()
		return err
	}
	cover := sealedCover(store)
	cover.Apply(img.Ops)
	cix := core.NewFromCover(c, cover)
	ix := t.ix
	ix.mu.Lock()
	oldClean := ix.folClean
	ix.coll = &Collection{c: c}
	ix.ix = cix
	ix.scope = img.Scope // adopt the primary's replication scope
	ix.epoch.Store(img.Seq)
	ix.cur.Store(nil)
	ix.last = nil // a new collection: the next engine starts from scratch
	ix.folClean = clean
	t.store = store
	// A (re-)bootstrap replaces the whole state: live-query sessions
	// cannot be diffed incrementally across it.
	if ws := ix.watch.Load(); ws != nil {
		ws.observe(img.Seq, core.WatchDelta{Full: true})
	}
	ix.mu.Unlock()
	if oldClean != nil {
		// a re-bootstrap (lag reset) replaced an earlier adopted store;
		// snapshots still reading it hold the unlinked bytes via mmap
		oldClean()
	}
	ix.Snapshot() // publish eagerly so the first reader pays no clone
	if ws := ix.watch.Load(); ws != nil {
		ws.signal()
	}
	return nil
}

func (t *replTarget) ApplyBatch(b storage.WALRecord) error {
	ops, err := core.DecodeCollOps(b.Coll)
	if err != nil {
		return err
	}
	ix := t.ix
	ix.mu.Lock()
	if err := ix.ix.ApplyLogged(ops, b.Ops); err != nil {
		ix.mu.Unlock()
		return err
	}
	ix.epoch.Store(b.Seq)
	// Retire the previous snapshot; the fresh one is built on Quiesce
	// (once per burst) or by the first reader, whichever comes first —
	// cloning per batch would let a write storm outrun the replay.
	ix.cur.Store(nil)
	// Feed live-query sessions the batch summary; the notifier wake-up
	// is deferred to Quiesce so a buffered burst fans out as one round.
	if ws := ix.watch.Load(); ws != nil {
		ws.observe(b.Seq, ix.ix.Summarize(&core.ChangeLog{Coll: ops, Cover: b.Ops}))
	}
	// On an adopted segment store, periodically seal the replay delta
	// so a long-lived follower's memory stays bounded like the
	// primary's. Sealing is local bookkeeping — it never changes the
	// served labels — so a failure only stops further sealing.
	var compact *segment.Store
	if st := t.store; st != nil {
		cov := ix.ix.Cover()
		if cov.Seg() && cov.DeltaEntries() >= defaultSegmentThreshold {
			if stk, err := st.Seal(b.Seq, cov.N(), int64(cov.Size()), cov.DeltaRecords()); err == nil {
				ix.ix.SealSwapBase(twohop.NewBase(stk))
				if st.NeedsCompaction() {
					compact = st
				}
			} else {
				t.store = nil // e.g. disk full: fall back to a growing delta
			}
		}
	}
	ix.mu.Unlock()
	if compact != nil {
		compact.Compact() // outside the lock; readers keep their pinned stacks
	}
	return nil
}

func (t *replTarget) Quiesce() {
	t.ix.Snapshot() // republish off the request path once the burst ends
	if ws := t.ix.watch.Load(); ws != nil {
		ws.signal() // one notifier round per buffered burst
	}
}

// --- status -----------------------------------------------------------

// ReplicaStatus describes an index's role in a replication topology.
type ReplicaStatus struct {
	// Role is "primary" (publisher attached), "replica" (created by
	// Follow), or "standalone".
	Role string
	// AppliedSeq is the durable batch sequence the served state
	// reflects: the committed WAL sequence on a primary, the last
	// replayed sequence on a replica.
	AppliedSeq uint64
	// PrimarySeq is the primary's committed sequence as last observed
	// (equal to AppliedSeq on the primary itself).
	PrimarySeq uint64
	// Lag is PrimarySeq - AppliedSeq: how many committed batches the
	// served state is behind, 0 when caught up.
	Lag uint64
	// Connected reports, on a replica, whether the stream to the
	// primary is currently open.
	Connected bool
	// PrimaryURL is, on a replica, the stream endpoint it follows.
	PrimaryURL string
	// LastContact is, on a replica, the arrival time of the most
	// recent record (zero when never connected).
	LastContact time.Time
	// FollowerStreams is, on a primary, the number of currently
	// connected follower streams.
	FollowerStreams int64
}

// ReplicaStatus reports the index's replication role and position.
// Safe to call concurrently with everything else.
func (ix *Index) ReplicaStatus() ReplicaStatus {
	ix.mu.RLock()
	fol, pub, dur := ix.fol, ix.pub, ix.dur
	var seq uint64
	if dur != nil {
		seq = ix.dur.nextSeq - 1
	}
	ix.mu.RUnlock()
	switch {
	case fol != nil:
		st := fol.Status()
		return ReplicaStatus{
			Role:        "replica",
			AppliedSeq:  st.AppliedSeq,
			PrimarySeq:  st.PrimarySeq,
			Lag:         st.Lag(),
			Connected:   st.Connected,
			PrimaryURL:  fol.URL(),
			LastContact: st.LastContact,
		}
	case pub != nil:
		return ReplicaStatus{
			Role:            "primary",
			AppliedSeq:      seq,
			PrimarySeq:      seq,
			FollowerStreams: pub.ActiveStreams(),
		}
	default:
		return ReplicaStatus{Role: "standalone", AppliedSeq: seq, PrimarySeq: seq}
	}
}
