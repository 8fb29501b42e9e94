package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hopi"
	"hopi/internal/gen"
)

// memConfig parameterizes the storage-footprint experiment: the same
// collection indexed flat (in-memory slices) and segmented (sealed
// compressed files + mmap), comparing resident bytes, bytes/label,
// checkpoint and bootstrap wall time, and query latency.
type memConfig struct {
	docs    int
	seed    int64
	expr    string
	churn   int // maintenance batches applied before the timed checkpoint
	queries int // latency samples per mode
}

type memResult struct {
	Docs      int
	CoverSize int
	Entries   int

	FlatHeapBytes uint64 // heap after GC with only the flat index live
	SegHeapBytes  uint64 // same with only the segmented index live

	FlatLabelBytes   int64 // in-memory label accounting (16 B/entry)
	SealedBytes      int64 // on-disk sealed stack
	Segments         int
	SegBytesPerLabel float64
	CompressionRatio float64 // FlatLabelBytes / SealedBytes
	Mmapped          bool

	CheckpointMs float64 // seal the churn delta into a segment
	ReopenMs     float64 // Open(path, Durable()) over the sealed store
	BootstrapMs  float64 // follower Follow() incl. file shipping

	// write-stall check: max single Apply latency on the primary while
	// the follower bootstraps, vs the same writer undisturbed
	ApplyBaselineMs   float64
	ApplyDuringBootMs float64

	FlatP50us, FlatP99us float64
	SegP50us, SegP99us   float64
}

func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func latencyUS(snap *hopi.Snapshot, expr string, n int) (p50, p99 float64, err error) {
	for i := 0; i < 3; i++ { // warmup: page in the mmap and fill decode caches
		if _, qerr := snap.Query(expr); qerr != nil {
			return 0, 0, qerr
		}
	}
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, qerr := snap.Query(expr); qerr != nil {
			return 0, 0, qerr
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(samples)
	return samples[len(samples)/2], samples[len(samples)*99/100], nil
}

func churnBatch(w, i, docs int) *hopi.Batch {
	b := hopi.NewBatch()
	name := fmt.Sprintf("mem-w%d-%05d.xml", w, i)
	target := fmt.Sprintf("pub%05d.xml", (w*7919+i)%docs)
	nd := hopi.NewDocument(name, "article")
	nd.AddElement(nd.Root(), "title")
	nd.AddElement(nd.Root(), "author")
	cite := nd.AddElement(nd.Root(), "cite")
	b.InsertDocument(nd)
	b.InsertLink(name, cite, target, 0)
	return b
}

func runMem(cfg memConfig) (memResult, error) {
	var r memResult
	r.Docs = cfg.docs
	coll := hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(cfg.docs, cfg.seed)))
	opts := hopi.DefaultOptions()
	opts.WithDistance = true
	opts.Seed = cfg.seed

	// --- flat (in-memory slices) -----------------------------------
	base := heapInUse()
	flat, err := hopi.Build(coll, opts)
	if err != nil {
		return r, fmt.Errorf("flat build: %w", err)
	}
	snap := flat.Snapshot()
	labels := snap.Labels()
	r.CoverSize = snap.Size()
	r.Entries = labels.Entries
	r.FlatLabelBytes = int64(labels.Entries) * 16
	if h := heapInUse(); h > base {
		r.FlatHeapBytes = h - base
	}
	if r.FlatP50us, r.FlatP99us, err = latencyUS(snap, cfg.expr, cfg.queries); err != nil {
		return r, fmt.Errorf("flat query: %w", err)
	}
	snap = nil
	flat = nil

	// --- segmented ---------------------------------------------------
	dir, err := os.MkdirTemp("", "hopimem")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ix.hopi")
	base = heapInUse()
	// the second WrapCollection keeps the segmented index from sharing
	// (and thus hiding) the flat run's collection allocations
	coll2 := hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(cfg.docs, cfg.seed)))
	seg, err := hopi.Create(path, coll2, opts)
	if err != nil {
		return r, fmt.Errorf("segment create: %w", err)
	}
	for i := 0; i < cfg.churn; i++ {
		if _, err := seg.Apply(context.Background(), churnBatch(0, i, cfg.docs)); err != nil {
			seg.Close()
			return r, fmt.Errorf("churn %d: %w", i, err)
		}
	}
	t0 := time.Now()
	if err := seg.Checkpoint(); err != nil {
		seg.Close()
		return r, fmt.Errorf("checkpoint: %w", err)
	}
	r.CheckpointMs = float64(time.Since(t0).Microseconds()) / 1000

	st := seg.SegmentStats()
	r.SealedBytes = st.SealedBytes
	r.Segments = st.Segments
	r.SegBytesPerLabel = st.BytesPerLabel
	r.Mmapped = st.Mmapped
	if st.SealedBytes > 0 {
		r.CompressionRatio = float64(int64(st.LiveEntries)*16) / float64(st.SealedBytes)
	}
	if h := heapInUse(); h > base {
		r.SegHeapBytes = h - base
	}
	ssnap := seg.Snapshot()
	if r.SegP50us, r.SegP99us, err = latencyUS(ssnap, cfg.expr, cfg.queries); err != nil {
		seg.Close()
		return r, fmt.Errorf("segment query: %w", err)
	}

	// --- follower bootstrap (sealed files shipped verbatim) ----------
	// a paced writer keeps committing while the follower boots; the
	// max single-Apply latency shows whether the image cut stalls it
	applyOnce := func(i int) (time.Duration, error) {
		t := time.Now()
		_, err := seg.Apply(context.Background(), churnBatch(1, i, cfg.docs))
		return time.Since(t), err
	}
	var maxBase time.Duration
	for i := 0; i < 20; i++ {
		d, err := applyOnce(i)
		if err != nil {
			seg.Close()
			return r, err
		}
		if d > maxBase {
			maxBase = d
		}
	}
	r.ApplyBaselineMs = float64(maxBase.Microseconds()) / 1000

	pub, err := seg.StartPublisher()
	if err != nil {
		seg.Close()
		return r, err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /repl/stream", pub)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pub.Close()
		seg.Close()
		return r, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)

	stop := make(chan struct{})
	writeErr := make(chan error, 1)
	var maxBoot atomic.Int64
	go func() {
		for i := 20; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d, err := applyOnce(i)
			if err != nil {
				writeErr <- err
				return
			}
			if int64(d) > maxBoot.Load() {
				maxBoot.Store(int64(d))
			}
		}
	}()
	t0 = time.Now()
	fol, err := hopi.Follow("http://"+ln.Addr().String()+"/repl/stream",
		hopi.FollowTimeout(60*time.Second), hopi.FollowDir(dir))
	if err != nil {
		close(stop)
		srv.Close()
		pub.Close()
		seg.Close()
		return r, fmt.Errorf("follow: %w", err)
	}
	r.BootstrapMs = float64(time.Since(t0).Microseconds()) / 1000
	close(stop)
	select {
	case err := <-writeErr:
		return r, err
	default:
	}
	r.ApplyDuringBootMs = float64(time.Duration(maxBoot.Load()).Microseconds()) / 1000
	fol.Close()
	srv.Close()
	pub.Close()
	if err := seg.Close(); err != nil {
		return r, fmt.Errorf("close: %w", err)
	}

	// --- durable reopen over the sealed stack ------------------------
	t0 = time.Now()
	re, err := hopi.Open(path, hopi.Durable())
	if err != nil {
		return r, fmt.Errorf("reopen: %w", err)
	}
	r.ReopenMs = float64(time.Since(t0).Microseconds()) / 1000
	return r, re.Close()
}

func renderMem(r memResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "collection: %d docs, cover |L| = %d (%d label entries)\n", r.Docs, r.CoverSize, r.Entries)
	fmt.Fprintf(&b, "  %-22s %12s %14s\n", "", "flat", "segments")
	fmt.Fprintf(&b, "  %-22s %12s %14s\n", "heap (resident)", fmtBytes(int64(r.FlatHeapBytes)), fmtBytes(int64(r.SegHeapBytes)))
	fmt.Fprintf(&b, "  %-22s %12s %14s  (%.2fx compression)\n", "label bytes",
		fmtBytes(r.FlatLabelBytes), fmtBytes(r.SealedBytes), r.CompressionRatio)
	fmt.Fprintf(&b, "  %-22s %12.1f %14.2f\n", "bytes/label", 16.0, r.SegBytesPerLabel)
	fmt.Fprintf(&b, "  %-22s %12.0f %14.0f\n", "query p50 (us)", r.FlatP50us, r.SegP50us)
	fmt.Fprintf(&b, "  %-22s %12.0f %14.0f\n", "query p99 (us)", r.FlatP99us, r.SegP99us)
	fmt.Fprintf(&b, "  sealed stack: %d segment(s), mmap=%v\n", r.Segments, r.Mmapped)
	fmt.Fprintf(&b, "  checkpoint (seal) %.1f ms, durable reopen %.1f ms, follower bootstrap %.1f ms\n",
		r.CheckpointMs, r.ReopenMs, r.BootstrapMs)
	fmt.Fprintf(&b, "  primary max Apply: %.1f ms alone, %.1f ms during bootstrap\n",
		r.ApplyBaselineMs, r.ApplyDuringBootMs)
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
