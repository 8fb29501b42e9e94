package twohop

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"hopi/internal/obs"
	"hopi/internal/segment"
)

// sealCover seals a cover's full label set into a fresh store and
// returns a twin over that base, counting its reads.
func sealCover(t *testing.T, dir string, flat *Cover) (*Cover, *segment.Store) {
	t.Helper()
	store, err := segment.CreateStore(dir, flat.WithDist, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Seal(1, flat.N(), int64(flat.Size()), flat.FullRecords()); err != nil {
		t.Fatal(err)
	}
	seg := NewCover(0, flat.WithDist)
	seg.SealSwap(NewBase(store.Current(), new(obs.Counter), new(obs.Counter), new(obs.Counter)), flat.N(), flat.Size())
	return seg, store
}

func randomCover(rng *rand.Rand, n int, withDist bool) *Cover {
	c := NewCover(n, withDist)
	for i := 0; i < n*4; i++ {
		v, ctr := int32(rng.Intn(n)), int32(rng.Intn(n))
		d := uint32(rng.Intn(5))
		if !withDist {
			d = 0
		}
		if rng.Intn(2) == 0 {
			c.AddIn(v, ctr, d)
		} else {
			c.AddOut(v, ctr, d)
		}
	}
	return c
}

func checkEqual(t *testing.T, flat, seg *Cover, where string) {
	t.Helper()
	if flat.N() != seg.N() {
		t.Fatalf("%s: N %d vs %d", where, flat.N(), seg.N())
	}
	if flat.Size() != seg.Size() {
		t.Fatalf("%s: Size %d vs %d", where, flat.Size(), seg.Size())
	}
	for v := int32(0); v < int32(flat.N()); v++ {
		fin, sin := flat.Lin(v), seg.Lin(v)
		if !entriesEqual(fin, sin) {
			t.Fatalf("%s: Lin(%d) = %v vs %v", where, v, fin, sin)
		}
		fout, sout := flat.Lout(v), seg.Lout(v)
		if !entriesEqual(fout, sout) {
			t.Fatalf("%s: Lout(%d) = %v vs %v", where, v, fout, sout)
		}
	}
}

func entriesEqual(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSegCoverEquivalence drives identical random mutation streams
// through a cover that never gets a base and a twin over a sealed base
// (periodically sealing its delta, and once clearing everything,
// re-adding and resealing in full) and checks that labels, size,
// Reaches and Distance stay identical throughout. Clones
// taken along the way must still equal deep copies made when they were
// taken.
func TestSegCoverEquivalence(t *testing.T) {
	for _, withDist := range []bool{false, true} {
		name := "plain"
		if withDist {
			name = "withDist"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			const n = 60
			flat := randomCover(rng, n, withDist)
			seg, store := sealCover(t, t.TempDir(), flat)
			checkEqual(t, flat, seg, "initial")

			apply := func(c *Cover, op int, v, ctr int32, d uint32, entries []Entry) {
				switch op {
				case 0, 1:
					c.AddIn(v, ctr, d)
				case 2, 3:
					c.AddOut(v, ctr, d)
				case 4:
					c.RemoveIn(v, ctr)
				case 5:
					c.RemoveOut(v, ctr)
				case 6:
					c.FilterIn(v, func(center int32) bool { return center%3 == ctr%3 })
				case 7:
					c.FilterOut(v, func(center int32) bool { return center%3 == ctr%3 })
				case 8:
					c.ClearIn(v)
				case 9:
					c.SetOut(v, entries)
				case 10:
					c.Grow(c.N() + int(v%3))
				}
			}

			type held struct{ clone, copy *Cover }
			var clones []held
			deepCopy := func(c *Cover) *Cover {
				r := NewCover(0, c.WithDist)
				r.Apply(c.SnapshotDeltas())
				return r
			}
			seq := uint64(1)
			for i := 0; i < 3000; i++ {
				op := rng.Intn(11)
				v, ctr := int32(rng.Intn(n)), int32(rng.Intn(n))
				d := uint32(rng.Intn(5))
				if !withDist {
					d = 0
				}
				var entries []Entry
				if op == 9 {
					for k := rng.Intn(4); k > 0; k-- {
						ed := uint32(rng.Intn(5))
						if !withDist {
							ed = 0
						}
						e := Entry{Center: int32(rng.Intn(n)), Dist: ed}
						if e.Center != v {
							entries = append(entries, e)
						}
					}
				}
				apply(flat, op, v, ctr, d, append([]Entry(nil), entries...))
				apply(seg, op, v, ctr, d, append([]Entry(nil), entries...))

				if i == 1100 {
					// drop everything, base included, and re-add: the
					// replay of a rebuild; the next seal is a full one
					for _, c := range []*Cover{flat, seg} {
						c.Apply([]CoverDelta{{Kind: DeltaClearAll}})
					}
					checkEqual(t, flat, seg, "cleared")
					re := rand.New(rand.NewSource(int64(i)))
					for k := 0; k < n*3; k++ {
						v, ctr, d := int32(re.Intn(n)), int32(re.Intn(n)), uint32(re.Intn(5))
						for _, c := range []*Cover{flat, seg} {
							if k%2 == 0 {
								c.AddIn(v, ctr, d)
							} else {
								c.AddOut(v, ctr, d)
							}
						}
					}
				}
				if i%500 == 250 || i == 1150 {
					// seal the delta and swap, mid-churn; without a base
					// the delta is every label and replaces the stack
					seq++
					seal := store.Seal
					if !seg.Seg() {
						seal = store.Reset
					}
					st, err := seal(seq, seg.N(), int64(seg.Size()), seg.DeltaRecords())
					if err != nil {
						t.Fatal(err)
					}
					nb := NewBase(st, nil, nil, nil)
					seg.SealSwap(nb, seg.N(), seg.Size())
					checkEqual(t, flat, seg, "after seal")
				}
				if i%400 == 0 {
					for _, c := range []*Cover{flat, seg} {
						clones = append(clones, held{c.Clone(), deepCopy(c)})
					}
				}
				if i%500 == 400 {
					if _, err := store.Compact(); err != nil {
						t.Fatal(err)
					}
					// the live cover still reads its pinned stack; also
					// verify a re-adoption of the compacted stack
				}
			}
			checkEqual(t, flat, seg, "after churn")
			for k, h := range clones {
				checkEqual(t, h.copy, h.clone, fmt.Sprintf("clone %d", k))
			}

			// spot-check Reaches/Distance parity
			for i := 0; i < 500; i++ {
				u, v := int32(rng.Intn(flat.N())), int32(rng.Intn(flat.N()))
				if fr, sr := flat.Reaches(u, v), seg.Reaches(u, v); fr != sr {
					t.Fatalf("Reaches(%d,%d) %v vs %v", u, v, fr, sr)
				}
				if withDist {
					if fd, sd := flat.Distance(u, v), seg.Distance(u, v); fd != sd {
						t.Fatalf("Distance(%d,%d) %d vs %d", u, v, fd, sd)
					}
				}
			}

			// clones stay consistent while the original keeps mutating
			segClone := seg.Clone()
			flatClone := flat.Clone()
			for i := 0; i < 300; i++ {
				op := rng.Intn(11)
				v, ctr := int32(rng.Intn(n)), int32(rng.Intn(n))
				apply(flat, op, v, ctr, 0, nil)
				apply(seg, op, v, ctr, 0, nil)
			}
			checkEqual(t, flatClone, segClone, "clone after divergence")
			checkEqual(t, flat, seg, "original after divergence")

			// SnapshotDeltas replays to the same flat labels
			replay := NewCover(0, withDist)
			replay.Apply(seg.SnapshotDeltas())
			checkEqual(t, flat, replay, "snapshot replay")
		})
	}
}

// TestSegCoverSealRoundTrip seals, reopens the store from disk, and
// adopts — the durable open path at the twohop level.
func TestSegCoverSealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	flat := randomCover(rng, 40, true)
	dir := filepath.Join(t.TempDir(), "segs")
	seg, store := sealCover(t, dir, flat)
	// mutate + seal the delta
	seg.AddIn(5, 17, 2)
	seg.RemoveOut(3, 9)
	flat.AddIn(5, 17, 2)
	flat.RemoveOut(3, 9)
	if _, err := store.Seal(2, seg.N(), int64(seg.Size()), seg.DeltaRecords()); err != nil {
		t.Fatal(err)
	}

	store2, err := segment.OpenStore(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, n, withDist, live := store2.Info()
	if seq != 2 || !withDist {
		t.Fatalf("Info = %d %v", seq, withDist)
	}
	reopened := NewCover(0, withDist)
	reopened.SealSwap(NewBase(store2.Current(), nil, nil, nil), n, int(live))
	checkEqual(t, flat, reopened, "reopened")

	// DeltaEntries bookkeeping
	if got := reopened.DeltaEntries(); got != 0 {
		t.Fatalf("fresh adoption has DeltaEntries %d", got)
	}
	reopened.AddIn(1, 2, 0)
	reopened.RemoveIn(5, 17)
	if got := reopened.DeltaEntries(); got != 2 {
		t.Fatalf("DeltaEntries = %d, want 2", got)
	}
}

// A decode-cache miss costs one allocation, the exact-size entry list;
// the decode itself runs in a pooled buffer. (The cache map's own
// growth is amortized over the misses and stays under one more.)
func TestBaseLinMissAllocs(t *testing.T) {
	const n = 4000
	flat := NewCover(n, true)
	for v := int32(0); v < n; v++ {
		for k := int32(1); k <= 6; k++ {
			flat.AddIn(v, (v+k*17)%n, uint32(k))
		}
	}
	seg, _ := sealCover(t, filepath.Join(t.TempDir(), "segs"), flat)
	base := seg.Base()
	next := int32(0)
	allocs := testing.AllocsPerRun(n/2, func() {
		if len(base.Lin(next)) != 6 {
			t.Fatalf("Lin(%d) = %v", next, base.Lin(next))
		}
		next++
	})
	if got := base.misses.Value(); got != uint64(next) {
		t.Fatalf("%d lookups of distinct keys, %d cache misses", next, got)
	}
	if allocs > 2 {
		t.Fatalf("a Base.Lin cache miss allocates %.0f objects, want ≤ 2", allocs)
	}
	if scanned := base.scanned.Value(); scanned < uint64(next) || scanned > 4*uint64(next) {
		t.Fatalf("%d misses walked %d block records", next, scanned)
	}
}

// Without a base a read is the delta list itself: Lin, LinBuf and
// Lout allocate nothing, before and after removes.
func TestBaseLinEmptyAllocs(t *testing.T) {
	const n = 200
	c := randomCover(rand.New(rand.NewSource(9)), n, true)
	for v := int32(0); v < n; v += 3 {
		for _, e := range c.Lin(v) {
			c.RemoveIn(v, e.Center)
		}
		if out := c.Lout(v); len(out) > 0 {
			c.RemoveOut(v, out[0].Center)
		}
	}
	var buf []Entry
	next := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		v := next % n
		next++
		_ = c.Lin(v)
		_ = c.LinBuf(v, &buf)
		_ = c.Lout(v)
	})
	if allocs != 0 {
		t.Fatalf("reads of a cover without a base allocate %.1f objects, want 0", allocs)
	}
}
