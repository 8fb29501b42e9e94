package segment_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"hopi"
	"hopi/internal/gen"
	"hopi/internal/segment"
)

// maxScan is the most records a point lookup may walk: the spacing of
// the restart directory.
const maxScan = 4

type record struct {
	key   int32
	posts []segment.Post
}

// checkLookups holds every family of seg to the linear walk: Posts
// returns what Iter (decodeBlock over every block) yields for each
// present key, reports absent before the first key, in every gap
// between records and after the last, and never walks more than
// maxScan records.
func checkLookups(t *testing.T, seg *segment.Segment) {
	t.Helper()
	for fam := segment.Family(0); fam < segment.NumFamilies; fam++ {
		var recs []record
		err := seg.Iter(fam, func(key int32, posts []segment.Post) error {
			recs = append(recs, record{key, append([]segment.Post(nil), posts...)})
			return nil
		})
		if err != nil {
			t.Fatalf("%s fam %d: Iter: %v", seg.Path(), fam, err)
		}
		absent := func(key int32) {
			if key < 0 {
				return
			}
			got, found, scanned, err := seg.Posts(fam, key, nil)
			if err != nil || found || len(got) != 0 || scanned > maxScan {
				t.Fatalf("%s fam %d: absent key %d: %d posts found=%v scanned=%d err=%v", seg.Path(), fam, key, len(got), found, scanned, err)
			}
		}
		for i, r := range recs {
			got, found, scanned, err := seg.Posts(fam, r.key, nil)
			if err != nil || !found {
				t.Fatalf("%s fam %d: key %d: found=%v err=%v", seg.Path(), fam, r.key, found, err)
			}
			if !reflect.DeepEqual(got, r.posts) {
				t.Fatalf("%s fam %d: key %d: Posts = %v, Iter yields %v", seg.Path(), fam, r.key, got, r.posts)
			}
			if scanned < 1 || scanned > maxScan {
				t.Fatalf("%s fam %d: key %d: walked %d records", seg.Path(), fam, r.key, scanned)
			}
			if i == 0 {
				absent(r.key - 1)
			} else if prev := recs[i-1].key; prev+1 < r.key {
				absent(prev + 1)
				absent(r.key - 1)
			}
		}
		if n := len(recs); n > 0 {
			absent(recs[n-1].key + 1)
			absent(1<<31 - 1)
		}
	}
}

// sealedStore builds the maintain-segments store: 620 generated
// documents, distance-aware, sealed into one segment by Create.
func sealedStore(tb testing.TB, open ...hopi.OpenOption) (*hopi.Index, string) {
	tb.Helper()
	opts := hopi.DefaultOptions()
	opts.Seed = 42
	opts.WithDistance = true
	path := filepath.Join(tb.TempDir(), "ix.hopi")
	ix, err := hopi.Create(path, hopi.WrapCollection(gen.DBLP(gen.DefaultDBLP(620, 42))), opts, open...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ix.Close() })
	return ix, path
}

// openSegments opens the sealed files of the store at path, oldest
// first.
func openSegments(tb testing.TB, path string) []*segment.Segment {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join(path+".segs", "seg-*.seg"))
	if err != nil {
		tb.Fatal(err)
	}
	segs := make([]*segment.Segment, len(files))
	for i, f := range files {
		if segs[i], err = segment.Open(f); err != nil {
			tb.Fatal(err)
		}
	}
	return segs
}

func TestPostsMatchesLinearWalkOnBuiltStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 620-document index")
	}
	ix, path := sealedStore(t, hopi.SegmentThreshold(-1), hopi.SegmentMaxStack(8))
	// Churn two more layers onto the stack: inserts with links, then
	// deletions (tombstones) beside more inserts.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	name := func(i int) string { return fmt.Sprintf("churn%03d.xml", i) }
	for round := 0; round < 2; round++ {
		for i := round * 30; i < round*30+30; i++ {
			nd := hopi.NewDocument(name(i), "article")
			cite := nd.AddElement(nd.Root(), "cite")
			b := hopi.NewBatch()
			b.InsertDocument(nd)
			b.InsertLink(name(i), cite, fmt.Sprintf("pub%05d.xml", rng.Intn(620)), 0)
			if _, err := ix.Apply(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
		if round == 1 {
			for i := 0; i < 30; i += 3 {
				b := hopi.NewBatch()
				b.DeleteDocumentByName(name(i))
				if _, err := ix.Apply(ctx, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ix.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	segs := openSegments(t, path)
	if len(segs) != 3 {
		t.Fatalf("stack of %d segments, want 3", len(segs))
	}
	var tombs int64
	for _, seg := range segs {
		checkLookups(t, seg)
		tombs += seg.Meta().Tombs
	}
	if tombs == 0 {
		t.Fatal("the churn sealed no tombstone")
	}
}

// TestPostsMatchesLinearWalkOnCraftedBlocks covers the shapes a built
// store only has by luck: blocks of 1 to 10 records (a big record
// closes a block, so the counts fall on both sides of every directory
// boundary), long distance-free lists, tombstones, and adjacent keys.
func TestPostsMatchesLinearWalkOnCraftedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plain := func(n int, withDist, withTombs bool) []segment.Post {
		posts := make([]segment.Post, n)
		val := int32(0)
		for i := range posts {
			val += 1 + int32(rng.Intn(40))
			posts[i].Val = val
			if withDist {
				posts[i].Dist = uint32(rng.Intn(9))
			}
			posts[i].Tomb = withTombs && rng.Intn(4) == 0
		}
		return posts
	}
	var fams [segment.NumFamilies][]segment.Rec
	for fam := range fams {
		key := int32(rng.Intn(3))
		for records := 1; records <= 10; records++ {
			for k := 0; k < records; k++ {
				var posts []segment.Post
				switch {
				case k == records-1:
					posts = plain(2500, true, true) // closes the block
				case fam == int(segment.FamLout) && k%2 == 0:
					posts = plain(40+rng.Intn(40), false, false)
				default:
					posts = plain(1+rng.Intn(6), true, true)
				}
				fams[fam] = append(fams[fam], segment.Rec{Key: key, Posts: posts})
				key += 1 + int32(rng.Intn(2))*int32(rng.Intn(50))
			}
		}
	}
	path := filepath.Join(t.TempDir(), "crafted.seg")
	_, err := segment.WriteFile(path, segment.Meta{N: 1 << 20, WithDist: true}, func(w *segment.Writer) error {
		for fam := segment.Family(0); fam < segment.NumFamilies; fam++ {
			for _, r := range fams[fam] {
				if err := w.Append(fam, r.Key, r.Posts); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	checkLookups(t, seg)
}

// BenchmarkSegmentPosts measures a cold point lookup — no decode cache
// above it — across the Lin family of the maintain-segments store.
func BenchmarkSegmentPosts(b *testing.B) {
	_, path := sealedStore(b)
	seg := openSegments(b, path)[0]
	n := int32(seg.Meta().N)
	rng := rand.New(rand.NewSource(42))
	var buf []segment.Post
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		posts, _, _, err := seg.Posts(segment.FamLin, rng.Int31n(n), buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = posts
	}
}
