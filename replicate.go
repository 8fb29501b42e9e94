package hopi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hopi/internal/core"
	"hopi/internal/replication"
	"hopi/internal/segment"
	"hopi/internal/storage"
	"hopi/internal/xmlmodel"
)

// Replication
//
// A durable primary ships its committed WAL batches to read-only
// followers over HTTP: StartPublisher attaches a log-shipping
// publisher to the index's commit path and exposes the stream as an
// http.Handler (mount it at GET /repl/stream); Follow dials that
// endpoint and returns a read-only durable *Index that bootstraps from
// a full state image and then logs and replays each committed batch
// through the primary's own durable path. Sequence numbers on the wire
// are the primary's WAL batch sequences, and follower epochs equal
// their applied sequence — so a resume token issued by one replica
// resumes on any other that has applied the same batch (see
// Snapshot.Epoch and StaleTokenError).

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
	po.Scope = ix.scope
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
	return &replication.Image{
		Seq:      seq,
		Scope:    ix.scope,
		WithDist: withDist,
		Coll:     buf.Bytes(),
		Ops:      ix.ix.Cover().DeltaOps(),
		N:        n,
		Live:     live,
		Files:    files,
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

// FollowDir keeps the follower's durable store in dir, as the files
// replica.segs, replica.coll and replica.wal. A Follow on a directory
// that holds a complete store recovers it and resumes the stream after
// its last logged batch instead of asking for a new image. Without
// FollowDir the store lives in a temporary directory that Close removes.
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

// Follow connects to a primary's replication endpoint (the URL its
// Publisher is mounted at, e.g. "http://primary:8080/repl/stream") and
// returns a read-only replica: a durable index that installs the
// primary's state image as its segment store, then appends each shipped
// batch — the primary's WAL record, byte for byte — to its own WAL and
// replays it, sealing and compacting as a primary does. Queries work as
// on any index; Apply fails with ErrReadOnlyReplica. The follower
// reconnects with backoff and resumes after its last applied batch;
// ReplicaStatus reports its position, lag and last error. A store
// failure stops replay until the follower is restarted.
//
// Follow returns once the replica holds a consistent state: at once
// when it recovered its store from FollowDir, else once the first image
// is installed (FollowTimeout).
func Follow(url string, opts ...FollowOption) (*Index, error) {
	cfg := followConfig{timeout: 30 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	dir, tempDir := cfg.dir, ""
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "hopi-follower-*"); err != nil {
			return nil, err
		}
		tempDir = dir
	}
	path := filepath.Join(dir, "replica")
	// a store without its sidecar, or one that fails recovery, is
	// replaced by the first image
	ix, err := openDurable(path, &openConfig{})
	if err != nil {
		ix = &Index{}
	}
	ix.readOnly = true
	f := replication.NewFollower(url, &replTarget{ix: ix, path: path, tempDir: tempDir}, cfg.fo)
	if d := ix.dur; d != nil {
		d.wal.DeferSync = true // see Quiesce
		f.Resume(d.nextSeq-1, ix.scope)
	}
	ix.fol = f
	f.Start()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		err = fmt.Errorf("hopi: follow %s: %w (last stream error: %q)", url, err, f.Status().LastError)
		ix.Close()
		os.RemoveAll(tempDir) // no store was attached to remove it; "" is a no-op
		return nil, err
	}
	return ix, nil
}

// replTarget adapts the index to the follower's Target interface. The
// follower calls from a single goroutine; each call takes the write
// lock, so replays serialize with readers exactly like Apply does on a
// primary.
type replTarget struct {
	ix      *Index
	path    string // the store's path (see attach)
	tempDir string // directory Close removes, "" with FollowDir
}

func (t *replTarget) Bootstrap(img *replication.Image) error {
	if err := t.install(img); err != nil {
		return err
	}
	t.ix.metrics().bootstraps.Inc()
	t.ix.Snapshot() // publish eagerly so the first reader pays no clone
	if ws := t.ix.watch.Load(); ws != nil {
		ws.signal()
	}
	return nil
}

// install makes img the follower's state and its store. The old store
// is detached and unlinked first: snapshots still reading it keep its
// files through their mappings, and no file is overwritten in place.
// The shipped segment files become the store next to an empty WAL, the
// residual delta is replayed and sealed, and that checkpoint writes the
// collection sidecar last, so its presence marks a complete store.
func (t *replTarget) install(img *replication.Image) error {
	c, _, err := xmlmodel.DecodeCollectionSeq(bytes.NewReader(img.Coll))
	if err != nil {
		return err
	}
	ix := t.ix
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if d := ix.dur; d != nil {
		ix.dur = nil
		d.stopCompactor()
		d.wal.Close()
	}
	for _, suffix := range []string{collSuffix, segsSuffix, walSuffix} {
		if err := os.RemoveAll(t.path + suffix); err != nil {
			return err
		}
	}
	store, err := segment.InstallStore(t.path+segsSuffix, img.Seq, img.N, img.WithDist, img.Live, img.Files, segment.Options{})
	if err != nil {
		return err
	}
	wal, _, err := storage.OpenWAL(t.path + walSuffix)
	if err != nil {
		return err
	}
	wal.DeferSync = true // see Quiesce
	cover := ix.sealedCover(store)
	cover.Apply(img.Ops)
	ix.coll = &Collection{c: c}
	ix.ix = core.NewFromCover(c, cover)
	ix.scope = img.Scope // adopt the primary's replication scope
	ix.cur.Store(nil)
	ix.last = nil // a new collection: the next engine starts from scratch
	ix.attach(t.path, store, wal, img.Seq, &openConfig{})
	ix.dur.tempDir = t.tempDir
	if ix.dur.err = ix.doCheckpoint(img.Seq); ix.dur.err != nil {
		return ix.dur.err
	}
	// live-query sessions cannot be diffed across a wholesale swap
	if ws := ix.watch.Load(); ws != nil {
		ws.observe(img.Seq, core.WatchDelta{Full: true})
	}
	return nil
}

// ApplyBatch logs the shipped record to the follower's WAL, replays it,
// and runs the same seal tail as a primary's commit.
func (t *replTarget) ApplyBatch(b storage.WALRecord) error {
	ops, err := core.DecodeCollOps(b.Coll)
	if err != nil {
		return err
	}
	ix := t.ix
	ix.mu.Lock()
	defer ix.mu.Unlock()
	d := ix.dur
	if d.err != nil {
		return fmt.Errorf("hopi: replica store failed earlier, restart the follower: %w", d.err)
	}
	if d.err = d.appendBatch(b.Seq, b.Raw); d.err == nil {
		d.err = ix.ix.ApplyLogged(ops, b.Ops)
	}
	if d.err != nil {
		return d.err
	}
	ix.epoch.Store(b.Seq)
	// Retire the previous snapshot and feed live-query sessions; the
	// fresh snapshot and the notifier wake-up wait for Quiesce (once per
	// burst) so a write storm cannot outrun the replay.
	ix.cur.Store(nil)
	if ws := ix.watch.Load(); ws != nil {
		ws.observe(b.Seq, ix.ix.Summarize(&core.ChangeLog{Coll: ops, Cover: b.Ops}))
	}
	d.err = ix.sealDue(b.Seq)
	return d.err
}

func (t *replTarget) Quiesce() {
	ix := t.ix
	ix.Snapshot() // republish off the request path once the burst ends
	if ws := ix.watch.Load(); ws != nil {
		ws.signal() // one notifier round per buffered burst
	}
	// one fsync for the burst's WAL appends, off the replay path: a crash
	// loses at most the unsynced tail, which the restart fetches again
	ix.mu.Lock()
	if d := ix.dur; d != nil && d.err == nil {
		d.err = d.wal.Sync()
	}
	ix.mu.Unlock()
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
	// LastError is, on a replica, the most recent stream, bootstrap or
	// replay failure ("" when none since the last connect).
	LastError string
	// LastContact is, on a replica, the arrival time of the most
	// recent record (zero when never connected).
	LastContact time.Time
	// FollowerStreams is, on a primary, the number of currently
	// connected follower streams.
	FollowerStreams int64
}

// DefaultReadyMaxLag is how many batches a connected replica may trail
// its primary and still count as ready.
const DefaultReadyMaxLag = 64

// Ready is the one readiness rule, for hopiserve's /readyz and the
// in-process router shard alike: primaries and standalone indexes
// serve complete, fresh answers; a replica does once its stream is
// connected and it trails the primary by at most maxLag batches. why
// says what keeps it unready.
func (st ReplicaStatus) Ready(maxLag uint64) (ok bool, why string) {
	switch {
	case st.Role != "replica":
		return true, ""
	case !st.Connected:
		return false, "replication stream disconnected"
	case st.Lag > maxLag:
		return false, fmt.Sprintf("replica %d batches behind primary (max %d)", st.Lag, maxLag)
	}
	return true, ""
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
			LastError:   st.LastError,
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
