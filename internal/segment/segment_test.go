package segment

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func randPosts(rng *rand.Rand, n int, withDist, withTombs bool) []Post {
	vals := map[int32]bool{}
	for len(vals) < n {
		vals[int32(rng.Intn(n*8))] = true
	}
	posts := make([]Post, 0, n)
	for v := range vals {
		p := Post{Val: v}
		if withDist {
			p.Dist = uint32(rng.Intn(7))
		}
		if withTombs && rng.Intn(5) == 0 {
			p.Tomb = true
		}
		posts = append(posts, p)
	}
	sortPosts(posts)
	return posts
}

func sortPosts(p []Post) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j].Val < p[j-1].Val; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// liveOf is Stack.Live into a fresh slice, without the scan count.
func liveOf(st *Stack, fam Family, key int32) ([]Post, error) {
	posts, _, err := st.Live(fam, key, nil)
	return posts, err
}

func writeSeg(t *testing.T, path string, meta Meta, fams [NumFamilies][]Rec) {
	t.Helper()
	_, err := WriteFile(path, meta, func(w *Writer) error {
		for fam := Family(0); fam < NumFamilies; fam++ {
			for _, r := range fams[fam] {
				if err := w.Append(fam, r.Key, r.Posts); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		name := "mmap"
		if fallback {
			name = "fallback"
		}
		t.Run(name, func(t *testing.T) {
			if fallback {
				forceFallback.Store(true)
				defer forceFallback.Store(false)
			}
			rng := rand.New(rand.NewSource(7))
			var fams [NumFamilies][]Rec
			for fam := 0; fam < NumFamilies; fam++ {
				key := int32(0)
				for k := 0; k < 300; k++ {
					key += int32(rng.Intn(5) + 1)
					posts := randPosts(rng, rng.Intn(40)+1, true, true)
					fams[fam] = append(fams[fam], Rec{Key: key, Posts: posts})
				}
			}
			// one long record that spans most of a block
			dense := make([]Post, 500)
			for i := range dense {
				dense[i] = Post{Val: int32(1000000 + i)}
			}
			fams[FamLout] = append(fams[FamLout], Rec{Key: 1 << 20, Posts: dense})

			path := filepath.Join(t.TempDir(), "x.seg")
			writeSeg(t, path, Meta{N: 4096, WithDist: true, Seq: 42}, fams)
			seg, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if seg.Mmapped() == fallback {
				t.Fatalf("Mmapped=%v, want %v", seg.Mmapped(), !fallback)
			}
			if m := seg.Meta(); m.N != 4096 || !m.WithDist || m.Seq != 42 {
				t.Fatalf("meta = %+v", m)
			}
			for fam := Family(0); fam < NumFamilies; fam++ {
				i := 0
				err := seg.Iter(fam, func(key int32, posts []Post) error {
					want := fams[fam][i]
					if key != want.Key || !reflect.DeepEqual(append([]Post(nil), posts...), want.Posts) {
						t.Fatalf("fam %d rec %d: got key %d %v, want key %d %v", fam, i, key, posts, want.Key, want.Posts)
					}
					i++
					return nil
				})
				if err != nil {
					t.Fatalf("Iter fam %d: %v", fam, err)
				}
				if i != len(fams[fam]) {
					t.Fatalf("fam %d: %d records, want %d", fam, i, len(fams[fam]))
				}
				// point lookups, including misses
				for _, r := range fams[fam] {
					got, found, _, err := seg.Posts(fam, r.Key, nil)
					if err != nil || !found {
						t.Fatalf("Posts(%d,%d): found=%v err=%v", fam, r.Key, found, err)
					}
					if !reflect.DeepEqual(got, r.Posts) {
						t.Fatalf("Posts(%d,%d) mismatch", fam, r.Key)
					}
				}
				if _, found, _, _ := seg.Posts(fam, 1<<30, nil); found {
					t.Fatal("found nonexistent key")
				}
			}
		})
	}
}

func TestStackShadowing(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateStore(dir, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// older: key 1 → {10@d2, 20@d5}, key 2 → {30}
	var f1 [NumFamilies][]Rec
	f1[FamLin] = []Rec{
		{Key: 1, Posts: []Post{{Val: 10, Dist: 2}, {Val: 20, Dist: 5}}},
		{Key: 2, Posts: []Post{{Val: 30, Dist: 1}}},
	}
	if _, err := s.Seal(1, 100, 3, f1); err != nil {
		t.Fatal(err)
	}
	// newer: key 1 → tombstone 10, improve 20 → d3, add 25
	var f2 [NumFamilies][]Rec
	f2[FamLin] = []Rec{
		{Key: 1, Posts: []Post{{Val: 10, Tomb: true}, {Val: 20, Dist: 3}, {Val: 25, Dist: 9}}},
	}
	if _, err := s.Seal(2, 100, 3, f2); err != nil {
		t.Fatal(err)
	}
	st := s.Current()
	live, err := liveOf(st, FamLin, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Post{{Val: 20, Dist: 3}, {Val: 25, Dist: 9}}
	if !reflect.DeepEqual(live, want) {
		t.Fatalf("Live = %v, want %v", live, want)
	}

	// compaction folds to one segment with identical live view
	if ok, err := s.Compact(); err != nil || !ok {
		t.Fatalf("Compact: ok=%v err=%v", ok, err)
	}
	st2 := s.Current()
	if len(st2.Segs) != 1 {
		t.Fatalf("stack depth %d after compact", len(st2.Segs))
	}
	live2, _ := liveOf(st2, FamLin, 1)
	if !reflect.DeepEqual(live2, want) {
		t.Fatalf("post-compact Live = %v, want %v", live2, want)
	}
	if got, _ := liveOf(st2, FamLin, 2); !reflect.DeepEqual(got, []Post{{Val: 30, Dist: 1}}) {
		t.Fatalf("key 2 = %v", got)
	}
	// compacted segment has no tombstones
	if tombs := st2.Segs[0].Meta().Tombs; tombs != 0 {
		t.Fatalf("compacted segment has %d tombstones", tombs)
	}
	// the pinned old stack still reads, its files unlinked
	if _, err := os.Stat(st.Segs[0].Path()); !os.IsNotExist(err) {
		t.Fatalf("old segment not unlinked: %v", err)
	}
	old, err := liveOf(st, FamLin, 1)
	if err != nil || !reflect.DeepEqual(old, want) {
		t.Fatalf("pinned stack read after unlink: %v %v", old, err)
	}

	// reopen: manifest round-trips
	s2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, n, wd, live := s2.Info(); seq != 2 || n != 100 || !wd || live != 3 {
		t.Fatalf("Info = %d %d %v %d", seq, n, wd, live)
	}
}

func TestSealEmptyAdvancesSeq(t *testing.T) {
	s, err := CreateStore(t.TempDir(), false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var empty [NumFamilies][]Rec
	if _, err := s.Seal(7, 10, 0, empty); err != nil {
		t.Fatal(err)
	}
	if got := s.Seq(); got != 7 {
		t.Fatalf("Seq = %d, want 7", got)
	}
	if st := s.Current(); len(st.Segs) != 0 {
		t.Fatalf("empty seal wrote a segment")
	}
}

var errInjected = errors.New("injected manifest failure")

// TestManifestCommitFailureLeavesStoreUnchanged fails the manifest
// fsync under Seal, Reset and Compact: each must report the error and
// leave the in-memory manifest, the stack and the MANIFEST file at the
// last committed state — a caller that sees the error must not find a
// sequence the disk never recorded.
func TestManifestCommitFailureLeavesStoreUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateStore(dir, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var f1, f2 [NumFamilies][]Rec
	f1[FamLin] = []Rec{{Key: 1, Posts: []Post{{Val: 4}}}}
	f2[FamLin] = []Rec{{Key: 1, Posts: []Post{{Val: 5}}}}
	if _, err := s.Seal(1, 10, 1, f1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal(2, 10, 2, f2); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	stack := s.Current()

	s.SetFailpoint(func(string) error { return errInjected })
	mutations := map[string]func() error{
		"Seal":    func() error { _, err := s.Seal(3, 10, 3, f1); return err },
		"Reset":   func() error { _, err := s.Reset(3, 10, 1, f1); return err },
		"Compact": func() error { _, err := s.Compact(); return err },
	}
	for name, mutate := range mutations {
		if err := mutate(); !errors.Is(err, errInjected) {
			t.Fatalf("%s over a failing manifest commit: %v", name, err)
		}
		if seq, _, _, live := s.Info(); seq != 2 || live != 2 {
			t.Fatalf("%s: failed commit moved the manifest to seq %d live %d", name, seq, live)
		}
		if s.Current() != stack {
			t.Fatalf("%s: failed commit swapped the stack", name)
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil || !bytes.Equal(onDisk, committed) {
			t.Fatalf("%s: MANIFEST changed on disk (err %v)", name, err)
		}
	}

	// the store recovers once the disk does
	s.SetFailpoint(nil)
	if _, err := s.Seal(3, 10, 3, f1); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != 3 {
		t.Fatalf("Seq = %d after the retried seal", s.Seq())
	}
}

func TestCrashMidCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := CreateStore(dir, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var f1, f2 [NumFamilies][]Rec
	f1[FamLout] = []Rec{{Key: 3, Posts: []Post{{Val: 7}, {Val: 9}}}}
	f2[FamLout] = []Rec{{Key: 3, Posts: []Post{{Val: 9, Tomb: true}, {Val: 11}}}}
	if _, err := s.Seal(1, 50, 2, f1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal(2, 50, 2, f2); err != nil {
		t.Fatal(err)
	}
	wantLive, _ := liveOf(s.Current(), FamLout, 3)

	// die after the compacted file lands but before the manifest commits
	s.SetFailpoint(func(string) error { return errInjected })
	if _, err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("compact over a failing manifest commit: %v", err)
	}

	// the orphan compacted file exists on disk
	entries, _ := os.ReadDir(dir)
	segFiles := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segFiles++
		}
	}
	if segFiles != 3 {
		t.Fatalf("expected 3 .seg files (2 live + 1 orphan), got %d", segFiles)
	}

	// reopen: orphan removed, labels byte-identical
	s2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := liveOf(s2.Current(), FamLout, 3)
	if err != nil || !reflect.DeepEqual(got, wantLive) {
		t.Fatalf("post-crash Live = %v (err %v), want %v", got, err, wantLive)
	}
	entries, _ = os.ReadDir(dir)
	segFiles = 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".seg" {
			segFiles++
		}
	}
	if segFiles != 2 {
		t.Fatalf("orphan not cleaned: %d .seg files", segFiles)
	}
	// and a retried compaction succeeds
	if ok, err := s2.Compact(); err != nil || !ok {
		t.Fatalf("retry compact: %v %v", ok, err)
	}
	got, _ = liveOf(s2.Current(), FamLout, 3)
	if !reflect.DeepEqual(got, wantLive) {
		t.Fatalf("post-retry Live = %v, want %v", got, wantLive)
	}
}

// TestInstallStoreWritesShippedFilesDurably installs a two-segment
// image the way a follower bootstraps: every shipped file lands under
// its own name byte for byte, through a temp file that is gone
// afterwards, and the installed store reads the same labels.
func TestInstallStoreWritesShippedFilesDurably(t *testing.T) {
	src, err := CreateStore(t.TempDir(), false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var f1, f2 [NumFamilies][]Rec
	f1[FamLout] = []Rec{{Key: 3, Posts: []Post{{Val: 7}, {Val: 9}}}}
	f2[FamLout] = []Rec{{Key: 3, Posts: []Post{{Val: 9, Tomb: true}, {Val: 11}}}}
	for i, f := range [][NumFamilies][]Rec{f1, f2} {
		if _, err := src.Seal(uint64(i+1), 50, 2, f); err != nil {
			t.Fatal(err)
		}
	}
	seq, n, withDist, live, files, err := src.ImageFiles(src.Current())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dst, err := InstallStore(dir, seq, n, withDist, live, files, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil || !bytes.Equal(got, f.Data) {
			t.Errorf("%s: installed %d bytes (err %v), shipped %d, or they differ", f.Name, len(got), err, len(f.Data))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("install left %s behind", e.Name())
		}
	}
	want, _ := liveOf(src.Current(), FamLout, 3)
	if got, err := liveOf(dst.Current(), FamLout, 3); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("installed store: Live = %v (err %v), want %v", got, err, want)
	}
}

// A version-1 bitset record with a word count ≥ 2⁶⁰ once wrapped
// int(nWords)*8 to 0, so the skip "succeeded" and the lookup went on
// reading inside the record. Its bytes are no valid record now: the
// lookup past it reports corruption.
func TestFindInBlockRejectsWrappingBitsetLength(t *testing.T) {
	b := []byte{1}           // the retired bitset mode byte
	b = putUvarint(b, 0)     // firstVal
	b = putUvarint(b, 1<<60) // nWords: ×8 wraps to 0
	b = putUvarint(b, 5)     // read as the next record's key delta
	b = appendPostings(b, []Post{{Val: 1}})
	e := blockEntry{firstKey: 0, lastKey: 5, nKeys: 2, length: len(b), restarts: []restart{{key: 0, off: 0}}}
	if got, found, _, ok := findInBlock(b, e, 5, nil); ok || found || len(got) != 0 {
		t.Fatalf("lookup past a damaged bitset record: posts=%v found=%v ok=%v, want corruption", got, found, ok)
	}
	if _, err := indexBlock(b, e, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("indexBlock accepted the block: %v", err)
	}
}
