package hopi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hopi/internal/segment"
	"hopi/internal/xmlmodel"
)

// --- helpers ----------------------------------------------------------

// crash simulates a process death: file handles close, nothing is
// sealed or checkpointed. The on-disk state is whatever the WAL and
// the last checkpoint left behind.
func crash(ix *Index) {
	if ix.dur != nil {
		d := ix.dur
		d.stopCompactor()
		d.wal.Close()
		ix.dur = nil
	}
}

// createDurable creates a distance-aware durable index over the base
// collection.
func createDurable(t *testing.T, path string, open ...OpenOption) (*Index, []string) {
	t.Helper()
	coll, base := baseCollection(t)
	opts := DefaultOptions()
	opts.WithDistance = true
	opts.Seed = 1
	ix, err := Create(path, coll, opts, open...)
	if err != nil {
		t.Fatal(err)
	}
	return ix, base
}

// setFailpoint installs fn at every step of the durable protocol: the
// index's own steps and the segment store's manifest commit.
func setFailpoint(ix *Index, fn func(step string) error) {
	ix.mu.Lock()
	ix.dur.failpoint = fn
	ix.dur.segs.SetFailpoint(fn)
	ix.mu.Unlock()
}

var errDiskDied = errors.New("injected store failure")

// dyingDisk is a failpoint that records every protocol step it is
// consulted at and, once armed, lets failAfter more steps through and
// then fails every later one — a disk that died and stays dead.
type dyingDisk struct {
	mu        sync.Mutex
	steps     []string
	armed     bool
	failAfter int
}

func (d *dyingDisk) step(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.steps = append(d.steps, name)
	if !d.armed {
		return nil
	}
	if d.failAfter > 0 {
		d.failAfter--
		return nil
	}
	return fmt.Errorf("%s: %w", name, errDiskDied)
}

func (d *dyingDisk) arm(failAfter int) {
	d.mu.Lock()
	d.armed, d.failAfter = true, failAfter
	d.mu.Unlock()
}

func (d *dyingDisk) seen() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.steps...)
}

// scriptOp is one deterministic maintenance step, addressed by
// document name so that any shape, the router included, can replay
// it; materialized into a fresh Batch per target index so document
// objects are never shared.
type scriptOp struct {
	// 0 insert doc+cite, 1 delete doc, 2 insert link, 3 delete link,
	// 4 rebuild, 5 insert scriptXML, 6 modify doc to modifiedXML
	kind     int
	name     string     // document to insert, delete or modify; link source document
	target   string     // cite/link target document
	from, to int32      // link endpoints' local elements (kinds 2 and 3)
	then     []scriptOp // kind 4: writes in the same batch, after the rebuild
}

// scriptXML is the document a kind 5 op inserts: an abstract on a
// cycle with its para, and a cite of target's root.
func scriptXML(target string) []byte {
	return fmt.Appendf(nil, `<article><title/><abstract id="a"><para idref="a"/><para/></abstract><author/><cite href="%s"/></article>`, target)
}

// modifiedXML is the new version a kind 6 op gives a document: shorter
// than most, so re-attached links fall back to its root.
var modifiedXML = []byte(`<article><title/><abstract id="a"><para/><para idref="a"/></abstract><cite/></article>`)

// buildScriptBatch materializes op for ix, which resolves the name of
// a document to modify.
func buildScriptBatch(ix *Index, op scriptOp) *Batch {
	b := NewBatch()
	addScriptOp(b, ix, op)
	return b
}

func addScriptOp(b *Batch, ix *Index, op scriptOp) {
	switch op.kind {
	case 0:
		d := NewDocument(op.name, "article")
		d.AddElement(d.Root(), "title")
		d.AddElement(d.Root(), "author")
		cite := d.AddElement(d.Root(), "cite")
		b.InsertDocument(d)
		if op.target != "" {
			b.InsertLink(op.name, cite, op.target, 0)
		}
	case 1:
		b.DeleteDocumentByName(op.name)
	case 2:
		b.InsertLink(op.name, op.from, op.target, op.to)
	case 3:
		// inverse of kind 2; only scripted when the link exists
		b.DeleteLink(op.name, op.from, op.target, op.to)
	case 4:
		b.Rebuild()
		for _, w := range op.then {
			addScriptOp(b, ix, w)
		}
	case 5:
		if err := b.InsertXML(op.name, scriptXML(op.target)); err != nil {
			panic(err)
		}
	case 6:
		id, _ := ix.Collection().DocByName(op.name)
		d, _, err := xmlmodel.ParseDocument(op.name, modifiedXML)
		if err != nil {
			panic(err)
		}
		b.ModifyDocument(id, &Document{d: d})
	}
}

// randomScript generates n always-valid maintenance steps over the
// base documents plus its own insertions.
func randomScript(rng *rand.Rand, baseDocs []string, n int, withRebuild bool) []scriptOp {
	alive := append([]string(nil), baseDocs...)
	var mine []string // deletable (scripted) docs
	type link struct{ from, to string }
	var links []link
	var ops []scriptOp
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("doc%04d.xml", i)
		switch k := rng.Intn(10); {
		case k < 4: // insert
			target := alive[rng.Intn(len(alive))]
			ops = append(ops, scriptOp{kind: 0, name: name, target: target})
			alive = append(alive, name)
			mine = append(mine, name)
		case k < 6 && len(mine) > 0: // delete a scripted doc
			j := rng.Intn(len(mine))
			victim := mine[j]
			mine = append(mine[:j], mine[j+1:]...)
			for a := 0; a < len(alive); a++ {
				if alive[a] == victim {
					alive = append(alive[:a], alive[a+1:]...)
					break
				}
			}
			kept := links[:0]
			for _, l := range links {
				if l.from != victim && l.to != victim {
					kept = append(kept, l)
				}
			}
			links = kept
			ops = append(ops, scriptOp{kind: 1, name: victim})
		case k < 8: // add a root→child link between two live docs
			from := alive[rng.Intn(len(alive))]
			to := alive[rng.Intn(len(alive))]
			if from == to {
				continue
			}
			dup := false
			for _, l := range links {
				if l.from == from && l.to == to {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			links = append(links, link{from, to})
			ops = append(ops, scriptOp{kind: 2, name: from, target: to, to: 1})
		case k < 9 && len(links) > 0: // remove one of those links
			j := rng.Intn(len(links))
			l := links[j]
			links = append(links[:j], links[j+1:]...)
			ops = append(ops, scriptOp{kind: 3, name: l.from, target: l.to, to: 1})
		case withRebuild: // occasional rebuild
			ops = append(ops, scriptOp{kind: 4})
		}
	}
	return ops
}

func baseCollection(t *testing.T) (*Collection, []string) {
	t.Helper()
	files := map[string][]byte{
		"a.xml": []byte(`<bib><book><title>A</title><author/></book><cite href="b.xml"/></bib>`),
		"b.xml": []byte(`<bib><book><title>B</title><author/></book><cite href="c.xml"/></bib>`),
		"c.xml": []byte(`<paper><section><author/></section></paper>`),
	}
	coll, err := ParseCollection(files)
	if err != nil {
		t.Fatal(err)
	}
	return coll, []string{"a.xml", "b.xml", "c.xml"}
}

// oracle builds a fresh in-memory index from the same base collection
// and applies script ops [0, k).
func oracle(t *testing.T, ops []scriptOp, k int, withDist bool) *Index {
	t.Helper()
	coll, _ := baseCollection(t)
	bopts := DefaultOptions()
	bopts.WithDistance = withDist
	bopts.Seed = 1
	ix, err := Build(coll, bopts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, ops[i])); err != nil {
			t.Fatalf("oracle op %d: %v", i, err)
		}
	}
	return ix
}

// assertSameAnswers compares got against want over every element pair:
// reachability always, distance when both carry it.
func assertSameAnswers(t *testing.T, got, want *Index, label string) {
	t.Helper()
	n := want.coll.c.NumAllocatedIDs()
	if g := got.coll.c.NumAllocatedIDs(); g != n {
		t.Fatalf("%s: %d allocated IDs, oracle has %d", label, g, n)
	}
	withDist := want.ix.Cover().WithDist && got.ix.Cover().WithDist
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if g, w := got.Reaches(u, v), want.Reaches(u, v); g != w {
				t.Fatalf("%s: Reaches(%d,%d) = %v, oracle %v", label, u, v, g, w)
			}
			if withDist {
				g, _ := got.Distance(u, v)
				w, _ := want.Distance(u, v)
				if g != w {
					t.Fatalf("%s: Distance(%d,%d) = %d, oracle %d", label, u, v, g, w)
				}
			}
		}
	}
}

// --- round trip and restart ------------------------------------------

// TestDurableCreateApplyReopen: create, churn (including rebuilds,
// which reseal the whole stack), close, reopen durable and plain,
// compare against a purely in-memory oracle.
func TestDurableCreateApplyReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.hopi")
	ix, base := createDurable(t, path)
	if !ix.Durable() {
		t.Fatal("Create returned a non-durable index")
	}
	if st := ix.SegmentStats(); !st.Enabled || st.Segments != 1 {
		t.Fatalf("fresh segment stats = %+v", st)
	}
	ops := randomScript(rand.New(rand.NewSource(7)), base, 40, true)
	for i, op := range ops {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	want := oracle(t, ops, len(ops), true)
	assertSameAnswers(t, ix, want, "live durable")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Durable())
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, re, want, "clean reopen")
	if st := re.SegmentStats(); !st.Enabled {
		t.Fatal("reopened index lost its segment store")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// the files also still load in plain mode, untouched and unattached
	mem, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, mem, want, "plain reopen")
	if mem.Durable() {
		t.Fatal("plain open attached a backend")
	}
}

func TestDurableCrashRecoversEveryCommittedBatch(t *testing.T) {
	for _, checkpointEvery := range []int{0, 5} {
		t.Run(fmt.Sprintf("checkpointEvery=%d", checkpointEvery), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "ix.hopi")
			coll, base := baseCollection(t)
			opts := DefaultOptions()
			opts.Seed = 1
			ix, err := Create(path, coll, opts)
			if err != nil {
				t.Fatal(err)
			}
			ops := randomScript(rand.New(rand.NewSource(11)), base, 25, false)
			for i, op := range ops {
				if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if checkpointEvery > 0 && i%checkpointEvery == checkpointEvery-1 {
					if err := ix.Checkpoint(); err != nil {
						t.Fatalf("checkpoint after op %d: %v", i, err)
					}
				}
			}
			crash(ix) // no Close, no final checkpoint

			want := oracle(t, ops, len(ops), false)
			re, err := Open(path, Durable())
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, re, want, "crash reopen")
			// Die again without a clean close. The first reopen's final
			// checkpoint sealed the tail, so the second exercises the
			// manifest-sequence guard: nothing may be applied twice.
			crash(re)
			re2, err := Open(path, Durable())
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			assertSameAnswers(t, re2, want, "second reopen")
		})
	}
}

func TestDurableTornWALTailDropsOnlyLastBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.hopi")
	coll, base := baseCollection(t)
	ix, err := Create(path, coll, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ops := randomScript(rand.New(rand.NewSource(3)), base, 12, false)
	for i, op := range ops {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	crash(ix)

	// tear the last record: chop a few bytes off the WAL tail,
	// simulating a crash mid-append
	walPath := path + walSuffix
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Durable())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// the torn batch is gone; everything before it survives
	assertSameAnswers(t, re, oracle(t, ops, len(ops)-1, false), "torn tail")
}

// --- crash recovery at every step of the durable protocol -------------

// runCrashScript is one run of the crash-recovery workload: create,
// apply the script with a small seal threshold (so some Applies seal
// inside the commit) and an explicit checkpoint every fourth op, with
// disk consulted at every protocol step. It returns the index and how
// many batches were acknowledged before the first failure.
func runCrashScript(t *testing.T, path string, ops []scriptOp, disk *dyingDisk) (ix *Index, acked int) {
	t.Helper()
	coll, _ := baseCollection(t)
	opts := DefaultOptions()
	opts.Seed = 1
	// a stack bound the script never reaches keeps the compactor — and
	// with it the step order — out of the picture
	ix, err := Create(path, coll, opts, SegmentThreshold(24), SegmentMaxStack(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	setFailpoint(ix, disk.step)
	for i, op := range ops {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			if !errors.Is(err, errDiskDied) {
				t.Fatalf("op %d: unexpected error: %v", i, err)
			}
			return ix, acked
		}
		acked = i + 1
		if i%4 == 3 {
			if err := ix.Checkpoint(); err != nil {
				if !errors.Is(err, errDiskDied) {
					t.Fatalf("checkpoint after op %d: %v", i, err)
				}
				return ix, acked
			}
		}
	}
	return ix, acked
}

// TestDurableCrashRecoveryRandomized drives randomized maintenance
// (rebuilds included) through the durable protocol, kills the disk at
// each step the protocol takes in turn — every WAL append, seal,
// manifest commit, sidecar rename and WAL truncate of the run —
// reopens from the surviving files, and checks every batch the WAL
// committed against an in-memory oracle rebuilt from the same script.
func TestDurableCrashRecoveryRandomized(t *testing.T) {
	_, base := baseCollection(t)
	ops := randomScript(rand.New(rand.NewSource(100)), base, 24, true)

	// a clean run first: which steps does the script take?
	var clean dyingDisk
	ix, acked := runCrashScript(t, filepath.Join(t.TempDir(), "ix.hopi"), ops, &clean)
	crash(ix)
	if acked != len(ops) {
		t.Fatalf("clean run acknowledged %d of %d batches", acked, len(ops))
	}
	steps := clean.seen()
	hit := map[string]int{}
	for _, s := range steps {
		hit[s]++
	}
	for _, s := range []string{"wal-append", "seal", "manifest", "sidecar", "wal-truncate"} {
		if hit[s] == 0 {
			t.Fatalf("the script never reaches step %q (steps taken: %v)", s, hit)
		}
	}

	for k, name := range steps {
		t.Run(fmt.Sprintf("die@%d-%s", k, name), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix.hopi")
			var disk dyingDisk
			disk.arm(k)
			ix, acked := runCrashScript(t, path, ops, &disk)
			crash(ix) // the replacement disk works: reopen has no failpoint

			re, err := Open(path, Durable())
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			// every batch whose Apply returned success must be visible; the
			// batch that died past its WAL append (in a seal inside the
			// commit) is committed too, though it was never acknowledged
			_, lastSeq, ok := re.WALSize()
			if !ok {
				t.Fatal("reopened index is not durable")
			}
			if int(lastSeq) < acked {
				t.Fatalf("recovered %d batches, but %d were acknowledged", lastSeq, acked)
			}
			if int(lastSeq) > acked+1 {
				t.Fatalf("recovered %d batches, only %d were even attempted", lastSeq, acked+1)
			}
			assertSameAnswers(t, re, oracle(t, ops, int(lastSeq), false), "recovered")
		})
	}
}

// TestDurableIntraLinkInInsertBatchNotDuplicated is a regression test:
// a batch that inserts a document and then adds an intra-document link
// to it must log the link exactly once (the document snapshot in the
// WAL is taken at insert time, the link as its own op) — an aliased
// snapshot used to carry the link too, so recovery materialized it
// twice and a later DeleteLink removed only one copy.
func TestDurableIntraLinkInInsertBatchNotDuplicated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.hopi")
	coll, _ := baseCollection(t)
	opts := DefaultOptions()
	opts.Seed = 1
	ix, err := Create(path, coll, opts)
	if err != nil {
		t.Fatal(err)
	}

	b := NewBatch()
	d := NewDocument("self.xml", "article")
	child := d.AddElement(d.Root(), "sec")
	leaf := d.AddElement(child, "leaf")
	b.InsertDocument(d)
	b.InsertLink("self.xml", leaf, "self.xml", 0) // intra-document: leaf → root
	if _, err := ix.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	crash(ix) // recover purely from the WAL

	re, err := Open(path, Durable())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc := re.Collection()
	doc, ok := rc.DocByName("self.xml")
	if !ok {
		t.Fatal("self.xml lost")
	}
	if n := len(rc.c.Docs[doc].IntraLinks); n != 1 {
		t.Fatalf("recovered document has %d intra links, want 1", n)
	}
	// deleting the link must fully remove it
	db := NewBatch()
	db.DeleteLink("self.xml", leaf, "self.xml", 0)
	if _, err := re.Apply(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	u, v := rc.ElemID(doc, leaf), rc.ElemID(doc, 0)
	if re.Reaches(u, v) {
		t.Fatal("leaf still reaches root after the only link was deleted")
	}
}

// --- write amplification ---------------------------------------------

// segFiles lists the segment store's directory: name → size.
func segFiles(t *testing.T, path string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(path + segsSuffix)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

// TestDurableApplyIsIncremental asserts that a single-document insert
// writes O(delta) WAL bytes and touches no file of the segment store,
// and that the checkpoint after it seals O(delta) bytes into one new
// segment — not a reseal of the full label set.
func TestDurableApplyIsIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.hopi")

	// a base collection big enough that a full rewrite dwarfs a delta
	coll := NewCollection()
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("base%03d.xml", i)
		d := NewDocument(name, "article")
		for j := 0; j < 8; j++ {
			d.AddElement(d.Root(), "section")
		}
		coll.Add(d)
	}
	for i := 0; i < 59; i++ {
		if err := coll.AddLink(DocID(i), 3, DocID(i+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Create(path, coll, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var disk dyingDisk // never armed: records the steps taken
	setFailpoint(ix, disk.step)

	fullPosts := ix.SegmentStats().SealedPosts
	filesBefore := segFiles(t, path)
	walBefore, _, _ := ix.WALSize()

	op := scriptOp{kind: 0, name: "delta.xml", target: "base030.xml"}
	if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
		t.Fatal(err)
	}

	// the apply itself must not write to the store: deltas go to the WAL
	// (fsynced) and the in-memory delta layer only
	if got := disk.seen(); len(got) != 1 || got[0] != "wal-append" {
		t.Errorf("durable Apply took steps %v; want the WAL append only", got)
	}
	filesAfter := segFiles(t, path)
	if len(filesAfter) != len(filesBefore) {
		t.Errorf("durable Apply changed the segment directory: %v → %v", filesBefore, filesAfter)
	}
	for name, size := range filesBefore {
		if filesAfter[name] != size {
			t.Errorf("durable Apply rewrote %s (%d → %d bytes)", name, size, filesAfter[name])
		}
	}
	walAfter, _, _ := ix.WALSize()
	walDelta := walAfter - walBefore
	if walDelta <= 0 {
		t.Fatal("apply appended nothing to the WAL")
	}
	// 13 bytes per label is what the log pays to carry the full set (a
	// Rebuild's snapshot record)
	if fullRecord := int64(13 * ix.Size()); walDelta > fullRecord/4 {
		t.Errorf("single-doc insert logged %d WAL bytes vs %d for the full label set — not O(delta)", walDelta, fullRecord)
	}

	// the checkpoint seals only the delta: one new small segment beside
	// the untouched first one. Counted in label postings, not bytes: a
	// delta of one-entry records compresses worse than the base does.
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := ix.SegmentStats()
	if st.Segments != 2 {
		t.Fatalf("checkpoint left %d segments, want the base plus one delta segment", st.Segments)
	}
	if sealed := st.SealedPosts - fullPosts; sealed <= 0 || sealed >= fullPosts/4 {
		t.Errorf("checkpoint sealed %d label postings beside a base of %d — want an incremental segment", sealed, fullPosts)
	}
	filesSealed := segFiles(t, path)
	for name, size := range filesBefore {
		if name != "MANIFEST" && filesSealed[name] != size {
			t.Errorf("checkpoint rewrote sealed file %s", name)
		}
	}
}

// --- poisoning --------------------------------------------------------

func TestDurablePoisonedAfterCommitFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.hopi")
	ix, base := createDurable(t, path)
	for i := 0; i < 5; i++ {
		op := scriptOp{kind: 0, name: fmt.Sprintf("p%03d.xml", i), target: base[0]}
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	var disk dyingDisk
	disk.arm(0) // die on the next step: the checkpoint's seal
	setFailpoint(ix, disk.step)
	firstErr := ix.Checkpoint()
	if firstErr == nil {
		t.Fatal("store death never surfaced")
	}
	if !errors.Is(firstErr, errDiskDied) {
		t.Fatalf("unexpected error: %v", firstErr)
	}
	// every further write is refused fast, with the original cause
	_, err := ix.Apply(context.Background(), buildScriptBatch(ix, scriptOp{kind: 0, name: "late.xml", target: base[0]}))
	if err == nil || !errors.Is(err, errDiskDied) {
		t.Fatalf("poisoned index accepted a write (err=%v)", err)
	}
	crash(ix)
}

// TestDurableManifestFsyncFailure fails exactly the fsync of the
// segment store's manifest during a checkpoint. The seal must not be
// taken for durable: the WAL keeps every batch, the index is poisoned,
// the manifest still names the previous state, and a reopen recovers
// every acknowledged batch from the log.
func TestDurableManifestFsyncFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.hopi")
	ix, base := createDurable(t, path)
	var ops []scriptOp
	for i := 0; i < 5; i++ {
		ops = append(ops, scriptOp{kind: 0, name: fmt.Sprintf("m%03d.xml", i), target: base[i%len(base)]})
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, ops[i])); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	walBefore, lastSeq, _ := ix.WALSize()
	if walBefore == 0 || lastSeq != 5 {
		t.Fatalf("WAL holds %d bytes through batch %d before the checkpoint", walBefore, lastSeq)
	}
	setFailpoint(ix, func(step string) error {
		if step == "manifest" {
			return errDiskDied
		}
		return nil
	})
	if err := ix.Checkpoint(); !errors.Is(err, errDiskDied) {
		t.Fatalf("checkpoint over a failing manifest fsync: %v", err)
	}
	if walAfter, _, _ := ix.WALSize(); walAfter != walBefore {
		t.Fatalf("WAL went from %d to %d bytes although the seal never became durable", walBefore, walAfter)
	}
	if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, scriptOp{kind: 0, name: "late.xml", target: base[0]})); !errors.Is(err, errDiskDied) {
		t.Fatalf("index not poisoned after the failed checkpoint (err=%v)", err)
	}
	// Close on a poisoned index must not retry the checkpoint
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := segment.OpenStore(path+segsSuffix, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq := store.Seq(); seq != 0 {
		t.Fatalf("manifest on disk advanced to batch %d through a failed fsync", seq)
	}

	re, err := Open(path, Durable())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, seq, _ := re.WALSize(); seq != 5 {
		t.Fatalf("recovered through batch %d, want 5", seq)
	}
	assertSameAnswers(t, re, oracle(t, ops, len(ops), true), "after the failed checkpoint")
}

// TestSaveConcurrentWithClose: Save decides between "checkpoint the
// attached store" and "write a full copy" from ix.dur, which Close
// clears; both must look at it under the index lock (run with -race).
// The copy's sidecar goes through the same atomic replace as the
// attached one, so no temp file is left behind.
func TestSaveConcurrentWithClose(t *testing.T) {
	dir := t.TempDir()
	ix, base := createDurable(t, filepath.Join(dir, "ix.hopi"))
	op := scriptOp{kind: 0, name: "s000.xml", target: base[0]}
	if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
		t.Fatal(err)
	}
	backup := filepath.Join(dir, "backup.hopi")
	saved := make(chan error, 1)
	go func() { saved <- ix.Save(backup) }()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(backup + collSuffix + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Save left its sidecar temp file behind (err %v)", err)
	}
	re, err := Open(backup)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, re, oracle(t, []scriptOp{op}, 1, true), "backup")
}

// --- files that are not a store ----------------------------------------

// TestOpenRejectsLegacyPageStoreFile: an index written by the retired
// page-store backend is a regular file at path with a sidecar and no
// path.segs. Both open modes must say so and point at hopibuild — not
// panic, and not come up as an empty index.
func TestOpenRejectsLegacyPageStoreFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.hopi")
	if err := os.WriteFile(path, make([]byte, 3*4096), 0o644); err != nil {
		t.Fatal(err)
	}
	coll, _ := baseCollection(t)
	if err := writeCollFile(path+collSuffix, coll.c, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]OpenOption{nil, {Durable()}} {
		ix, err := Open(path, opts...)
		if err == nil {
			t.Fatalf("Open(%d options) of a page-store file succeeded with %d labels", len(opts), ix.Size())
		}
		if !strings.Contains(err.Error(), "rebuild with hopibuild") {
			t.Fatalf("Open(%d options): error does not say how to recover: %v", len(opts), err)
		}
	}
	// a path with nothing at all is plain not-found
	if _, err := Open(filepath.Join(t.TempDir(), "none.hopi"), Durable()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of a missing store: %v", err)
	}
}

// TestOpenRejectsVersion1Segments: a store whose segments carry the
// version-1 format, which also stored owner postings, does not open.
// Both open modes say the index is derived data and point at hopibuild.
func TestOpenRejectsVersion1Segments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.hopi")
	ix, _ := createDurable(t, path)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(path+segsSuffix, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segment to age: %v", err)
	}
	for _, seg := range segs {
		f, err := os.OpenFile(seg, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		var v1 [4]byte
		binary.LittleEndian.PutUint32(v1[:], 1) // the header's version word
		if _, err := f.WriteAt(v1[:], 4); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for _, opts := range [][]OpenOption{nil, {Durable()}} {
		ix, err := Open(path, opts...)
		if err == nil {
			ix.Close()
			t.Fatalf("Open(%d options) of a version-1 store succeeded", len(opts))
		}
		if !strings.Contains(err.Error(), "rebuild with hopibuild") {
			t.Fatalf("Open(%d options): error does not say how to recover: %v", len(opts), err)
		}
	}
}

// --- seals, compaction and readers ---------------------------------------

// TestDurableAutoSealAndCompaction drives enough churn through a tiny
// seal threshold and stack bound that Apply seals mid-script and the
// background compactor folds the stack, all while the index keeps
// serving correct answers and previously issued resume tokens stay
// valid (checkpoints do not advance the epoch).
func TestDurableAutoSealAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.hopi")
	ix, base := createDurable(t, path, SegmentThreshold(16), SegmentMaxStack(2))
	defer ix.Close()

	ops := randomScript(rand.New(rand.NewSource(3)), base, 50, false)
	half := len(ops) / 2
	for i := 0; i < half; i++ {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, ops[i])); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}

	// issue a cursor mid-churn, then checkpoint explicitly: the token
	// must survive the seal (same logical state, same epoch)
	snap := ix.Snapshot()
	pq, err := Prepare("//article//author")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := snap.Run(context.Background(), pq, QueryLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	cur.Next()
	token := cur.Token()
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if token != "" {
		if _, err := ix.Snapshot().Run(context.Background(), pq, QueryResume(token)); err != nil {
			t.Fatalf("resume token died across a seal checkpoint: %v", err)
		}
	}

	// every seal and compaction from here on swaps the sealed base; the
	// decode-cache counters are an index's, not a base's, and only grow
	prev := ix.SegmentStats()
	if prev.CacheMisses == 0 || prev.RecordsScanned == 0 {
		t.Fatalf("maintenance over a sealed base counted no decode-cache miss: %+v", prev)
	}
	for i := half; i < len(ops); i++ {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, ops[i])); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		st := ix.SegmentStats()
		if st.CacheMisses < prev.CacheMisses || st.RecordsScanned < prev.RecordsScanned {
			t.Fatalf("op %d: cache counters went backwards: %d/%d misses, %d/%d records", i,
				prev.CacheMisses, st.CacheMisses, prev.RecordsScanned, st.RecordsScanned)
		}
		prev = st
	}
	assertSameAnswers(t, ix, oracle(t, ops, len(ops), true), "after auto-seals")
	var text strings.Builder
	if err := ix.Metrics().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"hopi_segment_cache_misses_total", "hopi_segment_block_records_scanned_total"} {
		if !strings.Contains(text.String(), "# TYPE "+fam+" counter") {
			t.Errorf("%s missing from the index registry", fam)
		}
	}

	st := ix.SegmentStats()
	if st.SealedSeq == 0 {
		t.Fatalf("threshold never sealed: %+v", st)
	}
	// drain the compactor: with MaxStack 2 the stack must eventually
	// fold back under the bound
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st = ix.SegmentStats()
		if st.CompactionBacklog == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.CompactionBacklog != 0 {
		t.Fatalf("compaction backlog never drained: %+v", st)
	}
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran despite MaxStack 2: %+v", st)
	}
}

// TestDurableSegmentCountersSurviveRebuild: the decode-cache counters
// are the index's, not a sealed base's. A Rebuild swaps in a cover
// without a base and its full reseal installs a new one; /metrics must
// keep counting from where it was, as a Prometheus _total does.
func TestDurableSegmentCountersSurviveRebuild(t *testing.T) {
	ix, base := createDurable(t, filepath.Join(t.TempDir(), "ix.hopi"))
	defer ix.Close()
	// a batch publishes a snapshot over the sealed base
	for _, op := range randomScript(rand.New(rand.NewSource(5)), base, 3, false) {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			t.Fatal(err)
		}
	}
	metric := func(name string) float64 {
		t.Helper()
		var text strings.Builder
		if err := ix.Metrics().WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(text.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("%s missing from /metrics", name)
		return 0
	}
	const misses, scanned = "hopi_segment_cache_misses_total", "hopi_segment_block_records_scanned_total"
	for _, expr := range []string{"//article//author", "//article//cite", "//author"} {
		if _, err := ix.Query(expr); err != nil {
			t.Fatal(err)
		}
	}
	before, beforeScanned := metric(misses), metric(scanned)
	if before == 0 || beforeScanned == 0 {
		t.Fatalf("queries over the sealed base counted %v misses, %v records", before, beforeScanned)
	}
	if err := ix.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if !ix.ix.Cover().Seg() {
		t.Fatal("a durable Rebuild left the cover without a sealed base")
	}
	if after := metric(misses); after < before {
		t.Fatalf("%s went back across a Rebuild: %v → %v", misses, before, after)
	}
	if after := metric(scanned); after < beforeScanned {
		t.Fatalf("%s went back across a Rebuild: %v → %v", scanned, beforeScanned, after)
	}
}

// TestDurableReplication bootstraps a follower from the primary's
// sealed files, converges it under churn, and checks label
// equality — the verbatim-file bootstrap path end to end. A replayed
// Rebuild reseals the follower's store whole, so it keeps serving from
// segments.
func TestDurableReplication(t *testing.T) {
	dir := t.TempDir()
	ix, base := createDurable(t, filepath.Join(dir, "p.hopi"), SegmentThreshold(16))
	defer ix.Close()
	// churn before the follower exists so the image has sealed segments
	// and a non-empty residual delta; end on a rebuild
	ops := append(randomScript(rand.New(rand.NewSource(5)), base, 40, true), scriptOp{kind: 4})
	half := len(ops) / 2
	for i := 0; i < half; i++ {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, ops[i])); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	p := startReplPrimary(t, ix, "", PublishTail(4), PublishHeartbeat(20*time.Millisecond))
	defer p.stop()

	fol, err := Follow(p.streamURL(),
		FollowTimeout(15*time.Second),
		FollowDir(dir),
		FollowReconnect(5*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if !fol.ix.Cover().Seg() {
		t.Fatal("follower did not adopt the primary's segment files")
	}
	waitCaughtUp(t, fol, ix)
	assertLabelEquality(t, fol, ix, "after bootstrap")

	// keep churning, including rebuilds, which ship as wholesale
	// ClearAll snapshots
	for i := half; i < len(ops); i++ {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, ops[i])); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	waitCaughtUp(t, fol, ix)
	if !fol.ix.Cover().Seg() {
		t.Fatal("follower serves a flat cover after a replayed rebuild")
	}
	assertLabelEquality(t, fol, ix, "after churn")
	assertSameAnswers(t, fol, oracle(t, ops, len(ops), true), "follower vs oracle")
}

// runFollowerCrashScript starts a durable primary and a follower on its
// own directory, consults disk at every protocol step the follower's
// store takes, and applies the script on the primary.
func runFollowerCrashScript(t *testing.T, ops []scriptOp, disk *dyingDisk) (p *replPrimary, fol *Index, fdir string) {
	t.Helper()
	dir := t.TempDir()
	ix, _ := createDurable(t, filepath.Join(dir, "p.hopi"))
	t.Cleanup(func() { ix.Close() })
	p = startReplPrimary(t, ix, "", PublishHeartbeat(20*time.Millisecond))
	t.Cleanup(p.stop)
	fdir = filepath.Join(dir, "follower")
	fol = followFast(t, p.streamURL(), FollowDir(fdir))
	setFailpoint(fol, disk.step)
	for i, op := range ops {
		if _, err := ix.Apply(context.Background(), buildScriptBatch(ix, op)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	return p, fol, fdir
}

// TestDurableFollowerCrashRecovery kills a follower's disk at each step
// its store takes while replaying a randomized script (rebuilds
// included): every WAL append, and the seal, manifest commit, sidecar
// rename and WAL truncate of each replayed rebuild's reseal. The
// follower must stop advancing and report the failure; restarted on the
// same directory it recovers from its files and converges on the
// primary's labels.
func TestDurableFollowerCrashRecovery(t *testing.T) {
	_, base := baseCollection(t)
	ops := randomScript(rand.New(rand.NewSource(100)), base, 24, true)

	var clean dyingDisk
	p, fol, _ := runFollowerCrashScript(t, ops, &clean)
	waitCaughtUp(t, fol, p.ix)
	steps := clean.seen()
	hit := map[string]int{}
	for _, s := range steps {
		hit[s]++
	}
	for _, s := range []string{"wal-append", "seal", "manifest", "sidecar", "wal-truncate"} {
		if hit[s] == 0 {
			t.Fatalf("the follower never reaches step %q (steps taken: %v)", s, hit)
		}
	}

	for k, name := range steps {
		t.Run(fmt.Sprintf("die@%d-%s", k, name), func(t *testing.T) {
			var disk dyingDisk
			disk.arm(k)
			p, fol, fdir := runFollowerCrashScript(t, ops, &disk)
			_, last, _ := p.ix.WALSize()
			deadline := time.Now().Add(10 * time.Second)
			for !strings.Contains(fol.ReplicaStatus().LastError, errDiskDied.Error()) {
				if time.Now().After(deadline) {
					t.Fatalf("follower never reported the failure: %+v", fol.ReplicaStatus())
				}
				time.Sleep(2 * time.Millisecond)
			}
			if st := fol.ReplicaStatus(); st.AppliedSeq >= last {
				t.Fatalf("follower with a dead disk applied through %d of %d", st.AppliedSeq, last)
			}
			if err := fol.Close(); err != nil {
				t.Fatal(err)
			}
			re := followFast(t, p.streamURL(), FollowDir(fdir))
			waitCaughtUp(t, re, p.ix)
			assertLabelEquality(t, re, p.ix, "restarted follower")
		})
	}
}
