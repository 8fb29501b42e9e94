package hopi

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"hopi/internal/core"
	"hopi/internal/obs"
	"hopi/internal/segment"
	"hopi/internal/storage"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// Durable attach mode
//
// A durable index keeps three things attached for its whole lifetime:
// the segment store (path+".segs": a stack of immutable, sorted,
// compressed segment files — varint-delta blocks with per-block CRCs,
// read through mmap — named by a MANIFEST), the collection sidecar
// (path+".coll"), and a write-ahead log (path+".wal"). The in-memory
// cover is the sealed stack plus a delta layer. Apply commits every
// maintenance batch to the WAL — collection ops plus cover label
// deltas, fsynced — before the new snapshot is published; nothing else
// is written per batch. A checkpoint (Checkpoint, periodic in
// hopiserve, the delta threshold inside Apply, and Close) seals the
// delta into one new segment in a single streaming pass, rewrites the
// sidecar and truncates the log; sealed files are never modified. A
// background compactor folds the stack back to one segment when it
// grows past SegmentMaxStack, dropping tombstones. The manifest records
// the WAL sequence the sealed state reflects, so replay after a crash
// (or after a checkpoint that died between sealing and truncating the
// log) skips batches the seal already covers. Opening a durable index
// replays any WAL tail left by a crash, so every batch whose Apply
// returned is visible after a restart — the §4 incremental maintenance
// of the stored index, made restartable. A replication follower (Follow)
// is the same durable index, fed its primary's WAL records instead.

const (
	collSuffix = ".coll"
	walSuffix  = ".wal"
	segsSuffix = ".segs"

	// defaultSegmentThreshold is the delta size (adds + tombstones) at
	// which Apply seals automatically when SegmentThreshold is not set.
	defaultSegmentThreshold = 1 << 16
)

// durableState is the persistent backend attached to an Index.
type durableState struct {
	path    string
	segs    *segment.Store
	wal     *storage.WAL
	nextSeq uint64
	// err poisons the attachment after a failed commit: the in-memory
	// index, the WAL, and the store can no longer be assumed coherent,
	// so further writes are refused until the index is reopened (which
	// recovers from the files).
	err error

	// segThreshold is the delta size at which Apply seals synchronously;
	// 0 disables auto-sealing (explicit Checkpoint only).
	segThreshold int
	compactKick  chan struct{} // buffered(1) wake-up for the compactor
	compactDone  chan struct{} // closed when the compactor exits
	// maint receives compaction durations from the compactor goroutine
	// (the checkpoint path records through the index's own handle).
	maint *obs.HistogramVec

	// failpoint, nil in production, lets tests fail the durable protocol
	// at a named step: "wal-append", "seal", "sidecar", "wal-truncate"
	// here, "manifest" inside the segment store. A non-nil error is
	// returned as if the step's I/O had failed. Read under ix.mu's write
	// side.
	failpoint func(step string) error

	// tempDir, when set, is removed by Close: the private store of a
	// follower started without FollowDir.
	tempDir string
}

func (d *durableState) failAt(step string) error {
	if d.failpoint == nil {
		return nil
	}
	return d.failpoint(step)
}

// OpenOption configures Open and Create.
type OpenOption func(*openConfig)

type openConfig struct {
	durable      bool
	segThreshold int
	segMaxStack  int
}

func (c *openConfig) threshold() int {
	if c.segThreshold != 0 {
		if c.segThreshold < 0 {
			return 0 // explicitly disabled
		}
		return c.segThreshold
	}
	return defaultSegmentThreshold
}

// Durable makes Open attach the on-disk store as the index's live
// backend: maintenance batches are write-ahead logged and sealed into
// the store incrementally, and any WAL tail from a previous run is
// replayed (crash recovery) before the index starts serving. Without
// this option Open reads the sealed labels and leaves the files
// untouched.
func Durable() OpenOption {
	return func(c *openConfig) { c.durable = true }
}

// Segments has no effect: the segment store is the only durable
// backend, so Create and Open always use it. The option remains so
// callers written when it selected between two backends keep compiling.
func Segments() OpenOption {
	return func(*openConfig) {}
}

// SegmentThreshold sets the in-memory delta size (label adds plus
// tombstones) at which a durable index seals automatically during
// Apply (default 65536, also chosen by n == 0). n < 0 disables
// auto-sealing; the delta then grows until an explicit Checkpoint.
func SegmentThreshold(n int) OpenOption {
	return func(c *openConfig) { c.segThreshold = n }
}

// SegmentMaxStack sets the sealed-segment count above which the
// background compactor folds the stack into one segment (default 4).
func SegmentMaxStack(k int) OpenOption {
	return func(c *openConfig) { c.segMaxStack = k }
}

// Create builds a HOPI index for the collection and attaches it to a
// freshly created durable store: the segment store at path+".segs",
// the collection sidecar path+".coll" and the log path+".wal". Create
// itself is not crash-atomic: a crash mid-create leaves an incomplete
// store that must be recreated. Once Create returns, every committed
// Apply survives crashes.
func Create(path string, coll *Collection, opts Options, open ...OpenOption) (*Index, error) {
	var cfg openConfig
	for _, o := range open {
		o(&cfg)
	}
	ix, err := Build(coll, opts)
	if err != nil {
		return nil, err
	}
	if err := ix.attachNew(path, &cfg); err != nil {
		return nil, err
	}
	return ix, nil
}

// attachNew creates the store files for a freshly built index and
// attaches them at sequence 0, the freshly created state: from here on
// the epoch is the durable WAL sequence, so resume tokens are portable
// across replicas and restarts (see Snapshot.Epoch). The first
// checkpoint seals the built labels as the store's one segment, empties
// a stale log from an earlier store at the same path, and persists the
// replication scope minted at Build time with the sidecar, so restarts
// and replicas share it.
func (ix *Index) attachNew(path string, cfg *openConfig) error {
	store, err := segment.CreateStore(path+segsSuffix, ix.ix.Cover().WithDist, segment.Options{MaxStack: cfg.segMaxStack})
	if err != nil {
		return err
	}
	wal, _, err := storage.OpenWAL(path + walSuffix)
	if err != nil {
		return err
	}
	ix.attach(path, store, wal, 0, cfg)
	if err := ix.doCheckpoint(0); err != nil {
		ix.dur.stopCompactor()
		ix.dur = nil
		wal.Close()
		return err
	}
	return nil
}

// attach wires an opened store and log into the index as its durable
// backend at committed sequence seq and starts the compactor.
func (ix *Index) attach(path string, store *segment.Store, wal *storage.WAL, seq uint64, cfg *openConfig) {
	d := &durableState{path: path, segs: store, wal: wal, nextSeq: seq + 1, segThreshold: cfg.threshold()}
	ix.wireWAL(wal)
	d.maint = ix.metrics().maintSeconds
	d.startCompactor()
	ix.dur = d
	ix.seqEpoch = true
	ix.epoch.Store(seq)
}

// openStore opens the segment store of the index at path. A missing
// store is reported for what it is: a regular file at path is an index
// written by the retired page-store backend.
func openStore(path string, opts segment.Options) (*segment.Store, error) {
	if !segment.IsStore(path + segsSuffix) {
		if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
			return nil, fmt.Errorf("hopi: %s is a page-store index file of an older version, a format no longer read; the index is derived data: rebuild with hopibuild", path)
		}
		return nil, fmt.Errorf("hopi: no segment store at %s: %w", path+segsSuffix, fs.ErrNotExist)
	}
	return segment.OpenStore(path+segsSuffix, opts)
}

// sealedCover returns a cover over the store's current stack with an
// empty delta, its reads counted by the index's segment counters.
func (ix *Index) sealedCover(store *segment.Store) *twohop.Cover {
	_, n, withDist, live := store.Info()
	cover := twohop.NewCover(0, withDist)
	cover.SealSwap(ix.newBase(store.Current()), n, int(live))
	return cover
}

// newBase wraps a sealed stack as a cover base. Every base of an index
// counts its reads into the same counters, which outlive covers, so
// the totals keep growing across seals, compactions, rebuilds and a
// follower's image installs.
func (ix *Index) newBase(st *segment.Stack) *twohop.Base {
	m := ix.metrics()
	return twohop.NewBase(st, m.segMisses, m.segScanned, m.segErrs)
}

// openDurable opens a durable index: adopt the sealed stack, replay
// the WAL tail past the manifest's sequence, and fold the tail back
// into a segment so the next crash recovers fast.
func openDurable(path string, cfg *openConfig) (*Index, error) {
	store, err := openStore(path, segment.Options{MaxStack: cfg.segMaxStack})
	if err != nil {
		return nil, err
	}
	wal, recs, err := storage.OpenWAL(path + walSuffix)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Index, error) {
		wal.Close()
		return nil, err
	}
	f, err := os.Open(path + collSuffix)
	if err != nil {
		return fail(fmt.Errorf("hopi: open collection: %w", err))
	}
	c, collSeq, scope, err := xmlmodel.DecodeCollectionMeta(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	if scope == 0 {
		// sidecar predates replication scopes: mint one; the checkpoint
		// below persists it
		scope = newEpoch()
	}
	segSeq := store.Seq()
	ix := &Index{scope: scope}
	cover := ix.sealedCover(store)
	maxSeq := max(collSeq, segSeq)
	for _, rec := range recs {
		if rec.Seq > segSeq {
			// batches the seal already covers are skipped, so a
			// checkpoint that crashed between sealing and truncating the
			// WAL replays cleanly
			cover.Apply(rec.Ops)
		}
		if rec.Seq > collSeq {
			ops, err := core.DecodeCollOps(rec.Coll)
			if err != nil {
				return fail(fmt.Errorf("hopi: wal replay (batch %d): %w", rec.Seq, err))
			}
			if err := core.ReplayCollOps(c, ops); err != nil {
				return fail(fmt.Errorf("hopi: wal replay (batch %d): %w", rec.Seq, err))
			}
		}
		maxSeq = max(maxSeq, rec.Seq)
	}
	ix.coll, ix.ix = &Collection{c: c}, core.NewFromCover(c, cover)
	ix.attach(path, store, wal, maxSeq, cfg)
	// Fold the replayed tail into a sealed segment and truncate the
	// log; with an empty tail this only restamps the manifest. A
	// replayed Rebuild batch cleared the sealed base, so its seal
	// replaces the whole stack.
	if err := ix.doCheckpoint(maxSeq); err != nil {
		ix.dur.stopCompactor()
		ix.dur = nil
		return fail(err)
	}
	return ix, nil
}

// Durable reports whether the index has an attached store backend.
func (ix *Index) Durable() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.dur != nil
}

// WALSize returns the current write-ahead log size in bytes and the
// sequence number of the last committed batch; ok is false when the
// index is not durable. Safe to call concurrently with Apply.
func (ix *Index) WALSize() (bytes int64, lastSeq uint64, ok bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d := ix.dur
	if d == nil {
		return 0, 0, false
	}
	return d.wal.Size(), d.nextSeq - 1, true
}

// Checkpoint makes every committed batch durable in the segment store
// and truncates the WAL: the in-memory delta is sealed into one new
// segment and the collection sidecar is rewritten atomically. A no-op
// when nothing was committed since the last checkpoint. Crashing
// anywhere inside Checkpoint is safe — recovery replays whatever part
// of the WAL the manifest's sequence does not cover.
func (ix *Index) Checkpoint() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	d := ix.dur
	if d == nil {
		return errors.New("hopi: index has no attached store")
	}
	if d.err != nil {
		return fmt.Errorf("hopi: durable backend failed earlier, reopen the index: %w", d.err)
	}
	if !d.wal.Empty() {
		d.err = ix.doCheckpoint(d.nextSeq - 1)
	}
	return d.err
}

// doCheckpoint folds every batch through seq into the segment store:
// seal the in-memory delta as one new segment (manifest-only when the
// delta is empty), swap the cover onto the new base, rewrite the
// collection sidecar, and truncate the WAL. A cover without a base —
// freshly built, rebuilt, or cleared by a replayed rebuild — holds
// every label in its delta, so its seal replaces the whole stack
// instead. The logical state is unchanged, so the epoch is not bumped
// and published snapshots, cursors and resume tokens all stay valid.
// The caller either holds ix.mu exclusively or has sole access to the
// index.
func (ix *Index) doCheckpoint(seq uint64) error {
	d := ix.dur
	start := time.Now()
	cov := ix.ix.Cover()
	if err := d.failAt("seal"); err != nil {
		return err
	}
	seal := d.segs.Seal
	if !cov.Seg() {
		seal = d.segs.Reset
	}
	st, err := seal(seq, cov.N(), int64(cov.Size()), cov.DeltaRecords())
	if err != nil {
		return err
	}
	ix.ix.SealSwapBase(ix.newBase(st))
	// the seal is durable: from here on a crash replays nothing of the
	// delta (the manifest sequence guards the WAL tail), so having
	// swapped the in-memory view is safe even if the steps below fail
	if err := d.failAt("sidecar"); err != nil {
		return err
	}
	if err := writeCollFile(d.path+collSuffix, ix.coll.c, seq, ix.scope); err != nil {
		return err
	}
	if err := d.failAt("wal-truncate"); err != nil {
		return err
	}
	if err := d.wal.Reset(); err != nil {
		return err
	}
	d.kickCompactor()
	ix.metrics().maintSeconds.With("seal").ObserveSince(start)
	return nil
}

// Close tears down replication (stopping a follower's stream, closing
// a publisher's follower streams), then checkpoints (when healthy) and
// detaches the durable backend, stopping the compactor and closing the
// WAL. Closing a plain in-memory index is a no-op. The index must not
// be used for maintenance afterwards.
func (ix *Index) Close() error {
	// Stop the live-query notifier first: its rounds take snapshots
	// (read lock) and its sessions' consumers may be blocked in Next.
	if ws := ix.watch.Swap(nil); ws != nil {
		ws.shutdown()
	}
	// Replication teardown happens before taking the write lock: the
	// follower's replay goroutine acquires it inside the apply
	// callbacks, and Stop waits for that goroutine to exit.
	ix.mu.Lock()
	fol, pub := ix.fol, ix.pub
	ix.fol, ix.pub = nil, nil
	ix.mu.Unlock()
	if pub != nil {
		pub.Close()
	}
	if fol != nil {
		fol.Stop()
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	d := ix.dur
	if d == nil {
		return nil
	}
	// a poisoned backend is left at its last seal; the next open
	// recovers from the WAL
	var ckptErr error
	if d.err == nil && !d.wal.Empty() {
		ckptErr = ix.doCheckpoint(d.nextSeq - 1)
	}
	ix.dur = nil
	d.stopCompactor()
	// the store itself has nothing to flush: sealed segments are
	// immutable and already fsynced; their mappings are reclaimed by the
	// runtime, and live snapshots keep reading a removed tempDir's files
	// (RemoveAll of "" is a no-op)
	return errors.Join(ckptErr, d.wal.Close(), os.RemoveAll(d.tempDir))
}

// commitDurable persists one applied batch. The caller holds ix.mu and
// recording was active for the whole batch.
func (ix *Index) commitDurable(log *core.ChangeLog) error {
	d := ix.dur
	seq := d.nextSeq
	collBytes, err := core.EncodeCollOps(log.Coll)
	if err != nil {
		return err
	}
	cover := log.Cover
	if log.Rebuilt {
		// A rebuild swapped the cover wholesale; the recorded deltas
		// cannot express that, so log the batch as a full snapshot:
		// clear-all followed by the complete new label set. Recovery
		// replays it through the same path as any other batch.
		cover = ix.ix.Cover().SnapshotDeltas()
	}
	rec := storage.EncodeBatch(seq, collBytes, cover)
	if err := d.appendBatch(seq, rec); err != nil {
		return err
	}
	// Ship the logged record to any attached replication publisher before
	// anything else can fail: a committed batch must reach followers even
	// when the seal below does not. Publish never blocks on slow followers
	// (they fall back to the WAL or a snapshot image), so holding ix.mu
	// here is fine.
	if ix.pub != nil {
		ix.pub.Publish(storage.WALRecord{Seq: seq, Raw: rec})
	}
	return ix.sealDue(seq)
}

// appendBatch logs one framed batch record, committed once it is on disk
// (when Append returns; on a follower at its next WAL Sync). Nothing else
// is written per batch: the in-memory cover is the authority until a seal.
func (d *durableState) appendBatch(seq uint64, rec []byte) error {
	if err := d.failAt("wal-append"); err != nil {
		return err
	}
	if err := d.wal.Append(rec); err != nil {
		return err
	}
	d.nextSeq = seq + 1
	return nil
}

// sealDue is the seal tail of a committed batch, on a primary's Apply
// and a follower's replay alike. A batch that left the cover without a
// base — a Rebuild, or a replayed DeltaClearAll record — is resealed
// whole right away, so the snapshot-sized WAL record is folded and the
// log returns to O(delta) size; otherwise the delta is sealed once it
// has grown past the threshold.
func (ix *Index) sealDue(seq uint64) error {
	d, cov := ix.dur, ix.ix.Cover()
	if !cov.Seg() || (d.segThreshold > 0 && cov.DeltaEntries() >= d.segThreshold) {
		return ix.doCheckpoint(seq)
	}
	return nil
}

// writeCollFile atomically replaces the collection sidecar via a
// same-directory rename, fsyncing file and directory.
func writeCollFile(path string, c *xmlmodel.Collection, seq, scope uint64) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = c.EncodeWithMeta(f, seq, scope)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// the caller truncates the WAL next: a rename that never reached the
	// disk would lose every collection op since the old sidecar
	return segment.SyncDir(filepath.Dir(path))
}

// --- background compactor ---------------------------------------------

// startCompactor launches the store's compaction goroutine: each kick
// folds the stack while it exceeds MaxStack. Compaction never takes
// ix.mu — it merges a pinned immutable stack and swaps it in under the
// store's own locks, so Apply and queries proceed concurrently; the
// live cover keeps reading its pinned (possibly unlinked) segments
// until the next seal swaps it forward.
func (d *durableState) startCompactor() {
	d.compactKick = make(chan struct{}, 1)
	d.compactDone = make(chan struct{})
	go func() {
		defer close(d.compactDone)
		for range d.compactKick {
			for d.segs.NeedsCompaction() {
				start := time.Now()
				if ok, err := d.segs.Compact(); err != nil || !ok {
					break
				}
				d.maint.With("compact").ObserveSince(start)
			}
		}
	}()
}

func (d *durableState) kickCompactor() {
	select {
	case d.compactKick <- struct{}{}:
	default: // a kick is already pending
	}
}

// stopCompactor drains the compactor and waits for it to exit.
func (d *durableState) stopCompactor() {
	close(d.compactKick)
	<-d.compactDone
}

// --- observability ----------------------------------------------------

// SegmentStats describes the sealed segment tier for /stats endpoints.
// Zero-valued with Enabled=false on indexes that never touched a
// store (Build without Create).
type SegmentStats struct {
	// Enabled reports whether the index reads from a segment store.
	Enabled bool `json:"enabled"`
	// Segments is the sealed segment file count in the current stack.
	Segments int `json:"segments"`
	// SealedBytes is the total on-disk size of the sealed stack.
	SealedBytes int64 `json:"sealedBytes"`
	// SealedPosts counts label postings in sealed files, including
	// entries shadowed by newer segments (compaction removes those).
	SealedPosts int64 `json:"sealedPosts"`
	// SealedTombs counts tombstones awaiting compaction.
	SealedTombs int64 `json:"sealedTombs"`
	// LiveEntries is the logical live label count |L|.
	LiveEntries int64 `json:"liveEntries"`
	// DeltaEntries is the in-memory delta size (adds + tombstones);
	// sealing resets it to 0.
	DeltaEntries int `json:"deltaEntries"`
	// SealedSeq is the WAL sequence the sealed state reflects.
	SealedSeq uint64 `json:"sealedSeq"`
	// Compactions counts completed stack compactions.
	Compactions uint64 `json:"compactions"`
	// CompactionBacklog is how many segments the stack is over the
	// compaction threshold (0 when within bounds).
	CompactionBacklog int `json:"compactionBacklog"`
	// Mmapped reports whether every sealed segment reads through mmap
	// (false when any fell back to pread).
	Mmapped bool `json:"mmapped"`
	// ReadErrors counts sealed reads that hit an I/O error and were
	// served as empty (0 in mmap mode; post-open validation makes
	// corruption unreachable, so this tracks pread failures only).
	ReadErrors uint64 `json:"readErrors"`
	// CacheMisses counts label and owner lookups that missed the decode
	// cache above the sealed stack and went to the segment blocks;
	// RecordsScanned counts the block records those lookups walked.
	CacheMisses    uint64 `json:"cacheMisses"`
	RecordsScanned uint64 `json:"recordsScanned"`
	// BytesPerLabel is SealedBytes / LiveEntries — compare against the
	// 16 bytes/entry of the flat in-memory layout (§3.4 accounting).
	BytesPerLabel float64 `json:"bytesPerLabel"`
}

// SegmentStats reports the segment tier's shape and health. Safe to
// call concurrently with Apply and queries.
func (ix *Index) SegmentStats() SegmentStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, cov := ix.dur, ix.ix.Cover()
	var st segment.Stats
	switch {
	case d != nil:
		st = d.segs.Stats()
	case cov.Seg():
		// no attached store, but the cover reads sealed segment files (a
		// plain Open): report the stack shape directly
		st = cov.Base().Stack().Stats()
		st.LiveEntries = int64(cov.Size())
	default:
		return SegmentStats{}
	}
	out := SegmentStats{
		Enabled:     true,
		Segments:    st.Segments,
		SealedBytes: st.SealedBytes,
		SealedPosts: st.SealedPosts,
		SealedTombs: st.SealedTombs,
		LiveEntries: st.LiveEntries,
		SealedSeq:   st.Seq,
		Compactions: st.Compactions,
		Mmapped:     st.Mmapped,
	}
	m := ix.metrics()
	out.DeltaEntries = cov.DeltaEntries()
	out.ReadErrors = m.segErrs.Value()
	out.CacheMisses = m.segMisses.Value()
	out.RecordsScanned = m.segScanned.Value()
	if d != nil {
		out.CompactionBacklog = max(st.Segments-d.segs.MaxStack(), 0)
	}
	if st.LiveEntries > 0 {
		out.BytesPerLabel = float64(st.SealedBytes) / float64(st.LiveEntries)
	}
	return out
}
