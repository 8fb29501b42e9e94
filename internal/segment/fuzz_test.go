package segment

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSeedBytes builds one small-but-representative valid segment
// (both families, distances, tombstones, and one long postings list)
// and returns its raw bytes.
func fuzzSeedBytes(f *testing.F) []byte {
	f.Helper()
	rng := rand.New(rand.NewSource(42))
	var fams [NumFamilies][]Rec
	for fam := Family(0); fam < NumFamilies; fam++ {
		for key := int32(0); key < 20; key++ {
			fams[fam] = append(fams[fam], Rec{Key: key * 3, Posts: randPosts(rng, 5+rng.Intn(20), true, true)})
		}
	}
	dense := make([]Post, 0, 64)
	for v := int32(100); v < 164; v++ {
		dense = append(dense, Post{Val: v})
	}
	fams[FamLout] = append(fams[FamLout], Rec{Key: 1000, Posts: dense})
	path := filepath.Join(f.TempDir(), "seed.seg")
	_, err := WriteFile(path, Meta{N: 64, WithDist: true, Seq: 7, Posts: 500, Tombs: 40}, func(w *Writer) error {
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
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzSegment feeds arbitrary bytes to the segment reader. Open does
// eager full validation (structure + CRCs), so a corrupt file must be
// rejected with an error — never a panic — and a file that passes
// validation must be fully iterable without error.
func FuzzSegment(f *testing.F) {
	seed := fuzzSeedBytes(f)
	f.Add(seed)
	f.Add(seed[:0])
	f.Add(seed[:headerLen])
	// truncations at structurally interesting points
	for _, cut := range []int{1, headerLen - 1, len(seed) / 2, len(seed) - footerLen, len(seed) - 1} {
		if cut >= 0 && cut < len(seed) {
			f.Add(append([]byte(nil), seed[:cut]...))
		}
	}
	// single bit flips spread across header, blocks, region, footer
	for _, pos := range []int{0, 5, len(seed) / 3, 2 * len(seed) / 3, len(seed) - footerLen + 2, len(seed) - 3} {
		b := append([]byte(nil), seed...)
		b[pos] ^= 1 << uint(pos%8)
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(path)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		// validated segments must read clean end to end
		for fam := Family(0); fam < NumFamilies; fam++ {
			if err := s.Iter(fam, func(key int32, posts []Post) error { return nil }); err != nil {
				t.Fatalf("Iter(%d) failed on a segment Open accepted: %v", fam, err)
			}
		}
		var buf []Post
		m := s.Meta()
		for key := int32(0); key < int32(m.N)+4; key++ {
			if _, _, _, err := s.Posts(FamLin, key, buf); err != nil {
				t.Fatalf("Posts(FamLin, %d) failed on a validated segment: %v", key, err)
			}
		}
	})
}

// FuzzFindInBlock feeds an arbitrary payload and index entry to the
// block lookup. It must never panic, and whenever the linear walk
// (decodeBlock) accepts the block, the lookup must agree with it on
// every key the walk saw, on both neighbours of each, and on the
// fuzzer's own key — within restartEvery records.
func FuzzFindInBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	var valid []byte
	key := int32(7)
	for k := 0; k < 9; k++ {
		if k > 0 {
			d := int32(1 + rng.Intn(3))
			valid = putUvarint(valid, uint64(d))
			key += d
		}
		valid = appendPostings(valid, randPosts(rng, 1+rng.Intn(6), true, true))
	}
	f.Add(valid, int32(7), uint16(9), key)
	f.Add(valid[:len(valid)/2], int32(7), uint16(9), int32(9))
	f.Add(valid, int32(7), uint16(5), int32(8))
	dense := make([]Post, 64)
	for i := range dense {
		dense[i].Val = int32(100 + i)
	}
	f.Add(appendPostings(append(appendPostings(nil, dense), 2), []Post{{Val: 3, Dist: 1}}), int32(0), uint16(2), int32(2))
	wrap := putUvarint(putUvarint([]byte{1}, 0), 1<<60)
	f.Add(appendPostings(putUvarint(wrap, 5), []Post{{Val: 1}}), int32(0), uint16(2), int32(5))

	f.Fuzz(func(t *testing.T, payload []byte, firstKey int32, nKeys uint16, want int32) {
		if firstKey < 0 {
			t.Skip()
		}
		e := blockEntry{firstKey: firstKey, nKeys: int(nKeys), length: len(payload)}
		var recs []Rec
		walk := func() error {
			recs = recs[:0]
			return decodeBlock(payload, e, func(key int32, _ int, posts []Post) error {
				recs = append(recs, Rec{Key: key, Posts: append([]Post(nil), posts...)})
				return nil
			})
		}
		if walk(); len(recs) > 0 { // learn the last key the index entry must name
			e.lastKey = recs[len(recs)-1].Key
		}
		accepted := walk() == nil
		e.restarts, _ = indexBlock(payload, e, nil)
		probe := func(key int32) {
			got, found, scanned, ok := findInBlock(payload, e, key, nil)
			if !accepted {
				return
			}
			var wantPosts []Post
			present := false
			for _, r := range recs {
				if r.Key == key {
					wantPosts, present = r.Posts, true
				}
			}
			if !ok || found != present || scanned > restartEvery || (present && !reflect.DeepEqual(got, wantPosts)) || (!present && len(got) != 0) {
				t.Fatalf("key %d: posts=%v found=%v scanned=%d ok=%v; the walk says present=%v posts=%v", key, got, found, scanned, ok, present, wantPosts)
			}
		}
		probe(want)
		for _, r := range recs {
			probe(r.Key - 1)
			probe(r.Key)
			probe(r.Key + 1)
		}
	})
}
