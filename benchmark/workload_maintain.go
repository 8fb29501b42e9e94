package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hopi"
	"hopi/internal/segment"
	"hopi/internal/storage"
	"hopi/internal/twohop"
)

// maintDoc is the writer's record of a document it inserted.
type maintDoc struct {
	name  string
	links map[int32]string // cite element → cited original document
}

// citeLocals are the local indexes of the three <cite> elements of a
// writer document (root 0, title 1, author 2).
var citeLocals = []int32{3, 4, 5}

// maintKinds is the writer's fixed cycle of batch kinds: of every 20
// batches 13 insert a document with two links, 3 insert a link, 2
// delete an inserted document (the Theorem 2 fast path) and 2 modify
// one. The proportions are exact, so percentiles do not sit on a border
// that moves with the draw.
var maintKinds = []string{
	"insert", "insert", "link", "insert", "insert", "delete", "insert", "insert", "link", "insert",
	"modify", "insert", "insert", "link", "insert", "insert", "delete", "insert", "modify", "insert",
}

// maintGen produces the maintenance writer's batch sequence from the
// seed. It tracks what it inserted, so every batch it emits is valid
// and none fails.
//
// Link deletion is not in the mix: at 620 documents one takes about a
// second and ten times more or less depending on what the cited document
// reaches, so a six-second window would hold a handful of them and no
// percentile of it would repeat. Like the general document deletions it
// is fixed work of the traced run (unlinkBatch).
type maintGen struct {
	rng   *rand.Rand
	cited *targets
	next  int
	alive []*maintDoc
}

func newMaintGen(seed int64, docs int) *maintGen {
	rng := rand.New(rand.NewSource(seed))
	return &maintGen{rng: rng, cited: newTargets(rng, docs)}
}

func writerDoc(name string, paras int) *hopi.Document {
	nd := hopi.NewDocument(name, "article")
	nd.AddElement(nd.Root(), "title")
	nd.AddElement(nd.Root(), "author")
	for range citeLocals {
		nd.AddElement(nd.Root(), "cite")
	}
	for i := 0; i < paras; i++ {
		nd.AddElement(nd.Root(), "para")
	}
	return nd
}

// batch returns the i-th batch and its kind. ix is consulted only for
// the document ID a modification needs.
func (g *maintGen) batch(ix *hopi.Index, i int) (*hopi.Batch, string) {
	b := hopi.NewBatch()
	pick := func() (*maintDoc, int) {
		k := g.rng.Intn(len(g.alive))
		return g.alive[k], k
	}
	switch kind := maintKinds[i%len(maintKinds)]; {
	case kind == "link" && len(g.alive) > 0:
		d, _ := pick()
		for _, l := range citeLocals {
			if _, used := d.links[l]; !used {
				d.links[l] = g.cited.next()
				b.InsertLink(d.name, l, d.links[l], 0)
				return b, "link"
			}
		}
	case kind == "delete" && len(g.alive) > 0:
		d, k := pick()
		g.alive = append(g.alive[:k], g.alive[k+1:]...)
		b.DeleteDocumentByName(d.name)
		return b, "delete"
	case kind == "modify" && len(g.alive) > 0:
		d, _ := pick()
		if id, ok := ix.Collection().DocByName(d.name); ok {
			b.ModifyDocument(id, writerDoc(d.name, 1+g.rng.Intn(3)))
			return b, "modify"
		}
	}
	// insert a document citing two originals (also the fallback when
	// the slot's kind has nothing to act on)
	d := &maintDoc{name: fmt.Sprintf("w-%06d.xml", g.next), links: map[int32]string{}}
	g.next++
	g.alive = append(g.alive, d)
	b.InsertDocument(writerDoc(d.name, 0))
	for _, l := range citeLocals[:2] {
		d.links[l] = g.cited.next()
		b.InsertLink(d.name, l, d.links[l], 0)
	}
	return b, "insert"
}

// unlinkBatch deletes one link of a seeded live writer document: the
// edge analogue of the Theorem 3 deletion. Nil when no link is left.
func (g *maintGen) unlinkBatch() *hopi.Batch {
	for _, i := range g.rng.Perm(len(g.alive)) {
		d := g.alive[i]
		for _, l := range citeLocals {
			if to, used := d.links[l]; used {
				delete(d.links, l)
				b := hopi.NewBatch()
				b.DeleteLink(d.name, l, to, 0)
				return b
			}
		}
	}
	return nil
}

// runMaintain is maintain-segments: a 620-document distance-aware
// index on the durable segment backend with fsync on. A writer paced at
// 20 batches per second (under half of what the store sustains) applies
// the seeded maintenance sequence beside one closed-loop limit-25
// reader; then the store is checkpointed, closed and reopened, and must
// answer as before.
func runMaintain(r *run) error {
	docs := r.cfg.docsOr(620)
	dir, err := os.MkdirTemp(r.cfg.tmpDir, "maintain")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ix.hopi")

	coll, setup := r.generate(docs)
	opts := buildOpts(true)
	var ix *hopi.Index
	defer func() { // ix is nil between Close and the reopen
		if ix != nil {
			ix.Close()
		}
	}()
	build := r.timed(-1, 0, "hopi.Create", func(int32) { ix, err = hopi.Create(path, coll, opts, hopi.Segments()) })
	if err != nil {
		return err
	}
	r.set("build_s", build.Seconds(), 1)
	r.set("cover_entries", float64(ix.Size()), 1)
	st := ix.SegmentStats()
	r.set("bytes_per_label", st.BytesPerLabel, int(st.LiveEntries))
	r.set("segment.bytes_per_label", st.BytesPerLabel, int(st.LiveEntries))
	setup += r.timed(-1, 0, "hopi.Index.Snapshot", func(int32) { ix.Snapshot() })
	var pqs []*hopi.PreparedQuery
	setup += r.timed(-1, 0, "hopi.Prepare", func(int32) { pqs = mustPrepare(serveExprs) })
	read := limitReader(r, ix, pqs)
	setup += r.warm(read, len(pqs))
	r.set("setup_s", setup.Seconds(), 1)

	ctx := context.Background()
	g := newMaintGen(r.cfg.seed, docs)
	var (
		kinds   []string
		durable = map[string]lats{}
		seals   = map[uint64]bool{}
	)
	write := func(_, i int, parent int32, op int64) error {
		b, kind := g.batch(ix, i)
		var err error
		d := r.timed(parent, op, "hopi.Index.Apply."+kind, func(int32) { _, err = ix.Apply(ctx, b) })
		if r.cfg.trace && err == nil {
			kinds = append(kinds, kind)
			durable[kind] = append(durable[kind], d)
		}
		return err
	}
	s := serving{read: read, cycle: len(pqs), probe: limitProbe, write: write, rate: 20}
	if r.cfg.trace {
		s.afterWrite = func() { seals[ix.SegmentStats().SealedSeq] = true }
	}
	r.serve(s)

	if r.cfg.trace {
		// after the windows, so that neither the follower's work nor the
		// probes' waits are in any window's numbers
		if err := r.replicaPhase(ix, docs, dir, pqs[0], g, len(kinds)); err != nil {
			return err
		}
		if err := r.maintainLayers(ix, docs, kinds, durable, len(seals), dir); err != nil {
			return err
		}
	}

	// Durability oracle: checkpoint, remember the answers, close, open,
	// ask again. Then reach and distance against BFS over what the
	// reopened store says the collection is.
	seal := r.timed(-1, 0, "hopi.Index.Checkpoint", func(int32) { err = ix.Checkpoint() })
	if err != nil {
		return err
	}
	r.set("segment.seal_ms", ms(seal), 1)
	before, err := answers(ix, pqs)
	if err != nil {
		return err
	}
	if err := ix.Close(); err != nil {
		return err
	}
	ix = nil
	reopen := r.timed(-1, 0, "hopi.Open", func(int32) { ix, err = hopi.Open(path, hopi.Durable()) })
	if err != nil {
		return err
	}
	r.set("reopen_s", reopen.Seconds(), 1)
	after, err := answers(ix, pqs)
	if err != nil {
		return err
	}
	for i := range before {
		r.check(before[i] == after[i], "%s answers differently after reopen: %d results (%x) before, %d (%x) after",
			pqs[i%len(pqs)], before[i].n, before[i].h, after[i].n, after[i].h)
	}
	if r.cfg.trace {
		roDur, _, _ := r.cfg.windows()
		sealed := r.runWindow(windowSpec{name: "sealed", dur: roDur / 2, readers: 1, read: limitReader(r, ix, pqs), cycle: len(pqs)})
		r.set("sealed_ro_query_qps", sealed.qps(), len(sealed.reads))
	}
	r.checkPairs("maintain-segments", ix.Collection().Unwrap(), ix, true, rand.New(rand.NewSource(r.cfg.seed)), 50, 50)

	if r.cfg.trace {
		// The segment layer's share of reopen_s, once the index has let go
		// of the directory. Like the reopen above it reads files the page
		// cache holds. The store has no Close: its mappings go with the
		// process.
		if err := ix.Close(); err != nil {
			return err
		}
		ix = nil
		open := r.timed(-1, 0, "segment.OpenStore", func(int32) { _, err = segment.OpenStore(path+".segs", segment.Options{}) })
		if err != nil {
			return err
		}
		r.set("segment.open_ms", ms(open), 1)
	}
	return nil
}

// answers digests every serving expression at limit 25 and in full.
func answers(ix *hopi.Index, pqs []*hopi.PreparedQuery) ([]digest, error) {
	ctx := context.Background()
	snap := ix.Snapshot()
	var out []digest
	for _, opts := range [][]hopi.QueryOption{{hopi.QueryLimit(25)}, nil} {
		for _, pq := range pqs {
			rs, _, err := drain(ctx, snap, pq, opts...)
			if err != nil {
				return nil, err
			}
			out = append(out, digestOf(toMatches(rs)))
		}
	}
	return out, nil
}

// hardDocs returns n original documents that do not separate the
// document-level graph (deleting them takes the Theorem 3 path),
// preferring those with the fewest ancestor documents: the region the
// deletion recomputes grows with the ancestors, and a general deletion
// of a hub can take longer than the whole benchmark may.
func hardDocs(ix *hopi.Index, docs, n int) []hopi.DocID {
	c := ix.Collection().Unwrap()
	dg, _ := c.DocGraph()
	type cand struct {
		doc hopi.DocID
		anc int
	}
	var cands []cand
	for d := 0; d < docs; d++ {
		if c.Alive(d) && !ix.Separates(hopi.DocID(d)) {
			cands = append(cands, cand{hopi.DocID(d), dg.ReachingTo(int32(d)).Count()})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].anc < cands[j].anc })
	var out []hopi.DocID
	for _, cd := range cands[:min(n, len(cands))] {
		out = append(out, cd.doc)
	}
	return out
}

// maintainLayers measures the layers under the durable writer on an
// in-memory twin that replays the same batch sequence one client at a
// time: core maintenance per op kind, the separation test, the two
// general deletions against a rebuild, then the same deletions on the
// durable index, the WAL append on its own, and snapshot publication.
func (r *run) maintainLayers(ix *hopi.Index, docs int, kinds []string, durable map[string]lats, seals int, dir string) error {
	ctx := context.Background()
	op := r.rec.newOp()
	root := r.rec.begin(-1, op, "maintain.layers")
	defer r.rec.end(root)

	twin, err := hopi.Build(genColl(docs), buildOpts(true))
	if err != nil {
		return err
	}
	g := newMaintGen(r.cfg.seed, docs)
	mem := map[string]lats{}
	for i, want := range kinds {
		b, kind := g.batch(twin, i)
		if kind != want {
			return fmt.Errorf("twin diverged at batch %d: %s, durable index applied %s", i, kind, want)
		}
		var err error
		d := r.timed(root, op, "core.apply."+kind, func(int32) { _, err = twin.Apply(ctx, b) })
		if err != nil {
			return err
		}
		mem[kind] = append(mem[kind], d)
	}
	r.set("core.apply_insert_ms", mem["insert"].meanMs(), len(mem["insert"]))
	r.set("core.apply_link_ms", mem["link"].meanMs(), len(mem["link"]))
	var unlinks lats
	for i := 0; i < 3; i++ {
		b := g.unlinkBatch()
		if b == nil {
			break
		}
		var err error
		unlinks = append(unlinks, r.timed(root, op, "core.apply.unlink", func(int32) { _, err = twin.Apply(ctx, b) }))
		if err != nil {
			return err
		}
	}
	r.set("core.apply_unlink_ms", unlinks.meanMs(), len(unlinks))
	r.set("core.apply_delete_fast_ms", mem["delete"].meanMs(), len(mem["delete"]))
	r.set("core.apply_modify_ms", mem["modify"].meanMs(), len(mem["modify"]))
	var durAll, memAll lats
	for k := range mem {
		durAll = append(durAll, durable[k]...)
		memAll = append(memAll, mem[k]...)
	}
	r.set("hopi.durable_overhead_ms", durAll.meanMs()-memAll.meanMs(), len(durAll))
	r.set("segment.seals", float64(seals), len(kinds))
	r.set("segment.compactions", float64(ix.SegmentStats().Compactions), 1)

	d := r.timed(root, op, "core.Separates", func(int32) {
		for doc := 0; doc < docs; doc++ {
			twin.Separates(hopi.DocID(doc))
		}
	})
	r.set("core.separates_test_us", us(d)/float64(docs), docs)

	// before the deletions below remove documents its inserts may cite
	pub := r.snapshotRefresh(ix, newInsertGen(r.cfg.seed+7, docs, "refresh"), root, op)
	r.set("hopi.snapshot_publish_ms", pub.meanMs(), len(pub))

	// the paper's hard case: deleting documents that do not separate
	hard := hardDocs(twin, docs, 2)
	var memDel, durDel time.Duration
	for _, doc := range hard {
		name := twin.Collection().DocName(doc)
		var (
			fast bool
			err  error
		)
		memDel += r.timed(root, op, "core.DeleteDocument.general", func(int32) { fast, err = twin.DeleteDocument(doc) })
		r.check(err == nil && !fast, "general deletion of %s on the twin: fast=%v err=%v", name, fast, err)
		b := hopi.NewBatch()
		b.DeleteDocumentByName(name)
		durDel += r.timed(root, op, "hopi.Index.Apply.general_delete", func(int32) { _, err = ix.Apply(ctx, b) })
		r.check(err == nil, "general deletion of %s on the durable index: %v", name, err)
	}
	r.set("core.general_delete_s", memDel.Seconds(), len(hard))
	r.set("general_delete_s", durDel.Seconds(), len(hard))
	rebuild := r.timed(root, op, "core.Rebuild", func(int32) { err = twin.Rebuild() })
	if err != nil {
		return err
	}
	r.set("core.rebuild_s", rebuild.Seconds(), 1)
	r.set("core.general_delete_vs_rebuild", memDel.Seconds()/rebuild.Seconds(), 1)

	// the WAL on its own: append and fsync records of the size the
	// writer's batches had
	walBytes := int(r.get("storage.wal_bytes_per_batch"))
	wal, _, err := storage.OpenWAL(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	payload := make([]byte, walBytes)
	var appends lats
	for i := 0; i < 50; i++ {
		appends = append(appends, r.timed(root, op, "storage.WAL.AppendBatch", func(int32) {
			err = wal.AppendBatch(uint64(i+1), payload, []twohop.CoverDelta(nil))
		}))
		if err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	r.set("storage.wal_append_ms", appends.meanMs(), len(appends))
	return nil
}

// snapshotRefresh applies ten insert batches, timing the Snapshot call
// that follows each: the clone a reader pays for after every write.
func (r *run) snapshotRefresh(ix *hopi.Index, g *insertGen, parent int32, op int64) lats {
	var out lats
	for i := 0; i < 10; i++ {
		if _, err := ix.Apply(context.Background(), g.batch(i)); err != nil {
			r.fail("refresh probe apply: %v", err)
			return out
		}
		out = append(out, r.timed(parent, op, "hopi.Index.Snapshot", func(int32) { ix.Snapshot() }))
	}
	return out
}

// replicaPhase attaches one follower and one watcher to the durable
// index once the windows are over, so their work is in no window's
// numbers. It reports the follower's bootstrap time and the longest
// Apply of a writer that kept committing meanwhile; then it applies 40
// more batches of the maintenance sequence, one at a time, and reports
// per batch the WAL bytes, the time until the follower had applied it
// and the time until the watcher heard of it.
func (r *run) replicaPhase(ix *hopi.Index, docs int, dir string, pq *hopi.PreparedQuery, g *maintGen, from int) error {
	pub, err := ix.StartPublisher()
	if err != nil {
		return err
	}
	defer pub.Close()
	mux := http.NewServeMux()
	mux.Handle("GET /repl/stream", pub)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// a writer keeps committing while the follower bootstraps; its
	// slowest Apply is the stall the image cut imposes on the primary
	stopBoot := make(chan struct{})
	bootDone := make(chan error, 1)
	var stallMax time.Duration
	go func() {
		boot := newInsertGen(r.cfg.seed+11, docs, "boot")
		for i := 0; ; i++ {
			select {
			case <-stopBoot:
				bootDone <- nil
				return
			default:
			}
			t := time.Now()
			if _, err := ix.Apply(ctx, boot.batch(i)); err != nil {
				bootDone <- err
				return
			}
			stallMax = max(stallMax, r.clock.since(t))
		}
	}()
	var fol *hopi.Index
	bootstrap := r.timed(-1, 0, "hopi.Follow", func(int32) {
		fol, err = hopi.Follow("http://"+ln.Addr().String()+"/repl/stream", hopi.FollowTimeout(60*time.Second), hopi.FollowDir(dir))
	})
	close(stopBoot)
	if berr := <-bootDone; err == nil {
		err = berr
	}
	if err != nil {
		return err
	}
	defer fol.Close()
	r.set("replication.bootstrap_s", bootstrap.Seconds(), 1)
	r.set("replication.apply_stall_max_ms", ms(stallMax), 1)

	watch, err := ix.Watch(ctx, pq)
	if err != nil {
		return err
	}
	defer watch.Close()
	var (
		mu       sync.Mutex
		arrivals = map[uint64]time.Time{} // epoch → when its watch event arrived
		bytes    int
		events   int
	)
	watching := make(chan struct{})
	go func() {
		defer close(watching)
		for {
			ev, err := watch.Next(ctx)
			if err != nil || ev.Resync {
				return
			}
			if ev.Init {
				continue
			}
			data, _ := json.Marshal(ev) // size only; a marshalling failure cannot happen for this plain struct
			mu.Lock()
			arrivals[ev.Epoch] = time.Now()
			bytes += len(data)
			events++
			mu.Unlock()
		}
	}()
	defer func() { cancel(); <-watching }()

	var (
		lags      lats
		committed = map[uint64]time.Time{} // epoch → when its Apply returned
		walBytes  int64
		walN      int
	)
	for i := 0; i < 40; i++ {
		b, _ := g.batch(ix, from+i)
		walBefore, _, _ := ix.WALSize()
		r.attempted.Add(1)
		if _, err := ix.Apply(ctx, b); err != nil {
			r.fail("replica phase apply %d: %v", i, err)
			continue
		}
		now := time.Now()
		committed[ix.Epoch()] = now
		// a seal truncates the log, so only growth counts as this batch's bytes
		if walAfter, _, _ := ix.WALSize(); walAfter > walBefore {
			walBytes += walAfter - walBefore
			walN++
		}
		want := ix.ReplicaStatus().AppliedSeq
		for fol.ReplicaStatus().AppliedSeq < want && time.Since(now) < 2*time.Second {
			time.Sleep(200 * time.Microsecond)
		}
		lags = append(lags, r.clock.since(now))
	}
	if walN > 0 {
		r.set("storage.wal_bytes_per_batch", float64(walBytes)/float64(walN), walN)
	}
	r.set("replication.lag_p50_ms", lags.sorted().pctMs(0.5), len(lags))
	time.Sleep(50 * time.Millisecond) // let the last notification arrive
	mu.Lock()
	defer mu.Unlock()
	var notifies lats
	for epoch, at := range arrivals {
		if ret, ok := committed[epoch]; ok && at.After(ret) {
			notifies = append(notifies, r.clock.between(ret, at))
		} else if ok {
			notifies = append(notifies, 0)
		}
	}
	r.set("watch.notify_p50_ms", notifies.sorted().pctMs(0.5), len(notifies))
	if events > 0 {
		r.set("watch.delta_bytes_per_notify", float64(bytes)/float64(events), events)
	}
	return nil
}
