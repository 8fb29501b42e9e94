package twohop

import (
	"fmt"
	"math/rand"
	"testing"

	"hopi/internal/graph"
)

// checkMarkOut runs MarkOutCenters over us and checks the marked set
// against the naive union of the owners' Lout centers and the count of
// entries read against wantRead.
func checkMarkOut(t *testing.T, where string, c *Cover, us []int32, wantRead int) {
	t.Helper()
	want := graph.NewBitset(c.N())
	for _, u := range us {
		for _, en := range c.Lout(u) {
			want.Set(int(en.Center))
		}
	}
	got := graph.NewBitset(c.N())
	var buf []Entry
	read := c.MarkOutCenters(us, got, &buf)
	if got.Count() != want.Count() || got.IntersectionCount(want) != want.Count() {
		t.Fatalf("%s: marked %v, want the union %v", where, got.Elements(nil), want.Elements(nil))
	}
	if read != wantRead {
		t.Fatalf("%s: read %d entries, want %d", where, read, wantRead)
	}
}

// TestMarkOutCenters: MarkOutCenters marks exactly the naive union of
// the owners' Lout centers. On an interned cover it reads each distinct
// list once, whichever owners and repeats name it; on a sealed cover
// with a delta and tombstones above the base it reads every owner with
// sealed entries through the merged view, once per mention, and each
// delta-only list once.
func TestMarkOutCenters(t *testing.T) {
	all := func(n int) []int32 {
		us := make([]int32, n)
		for i := range us {
			us[i] = int32(i)
		}
		return us
	}
	for _, withDist := range []bool{false, true} {
		c := internCover(withDist)
		c.Intern()
		where := fmt.Sprintf("withDist=%v: interned", withDist)
		// four group lists of 3 entries, and owner 31's own list of 4
		checkMarkOut(t, where+", every owner", c, all(48), 4*3+4)
		checkMarkOut(t, where+", every owner twice", c, append(all(48), all(48)...), 4*3+4)
		checkMarkOut(t, where+", one group", c, []int32{5, 9, 13, 1, 5}, 3)
		checkMarkOut(t, where+", no lists", c, []int32{32, 40, 47}, 0)
		checkMarkOut(t, where+", empty frontier", c, nil, 0)
		// after a write the written owner holds a list of its own
		c.AddOut(9, 46, 1)
		checkMarkOut(t, where+", one owner written", c, []int32{5, 9, 13}, 3+4)

		plain := internCover(withDist)
		checkMarkOut(t, fmt.Sprintf("withDist=%v: not interned", withDist), plain, []int32{5, 9, 9}, 3+3)
	}

	rng := rand.New(rand.NewSource(11))
	const n = 60
	flat := randomCover(rng, n, true)
	seg, _ := sealCover(t, t.TempDir(), flat)
	// a delta above the base: new centers, and tombstones over sealed
	// entries
	for k := 0; k < 40; k++ {
		u, ctr := int32(rng.Intn(n)), int32(rng.Intn(n))
		flat.AddOut(u, ctr, 1)
		seg.AddOut(u, ctr, 1)
		if out := seg.Lout(u); len(out) > 1 {
			dead := out[rng.Intn(len(out))].Center
			flat.RemoveOut(u, dead)
			seg.RemoveOut(u, dead)
		}
	}
	checkEqual(t, flat, seg, "sealed with a delta")
	if len(seg.tombs[sideOut]) == 0 || seg.DeltaEntries() == 0 {
		t.Fatalf("sealed cover: %d tombstoned owners, %d delta entries; want both", len(seg.tombs[sideOut]), seg.DeltaEntries())
	}
	us := append(all(n), all(n)...)
	want := 0
	for _, u := range all(n) {
		// an owner with sealed entries is read per mention, a delta-only
		// list once
		want += len(seg.Lout(u))
		if len(seg.base.Lout(u)) > 0 {
			want += len(seg.Lout(u))
		}
	}
	checkMarkOut(t, "sealed with a delta", seg, us, want)
	checkMarkOut(t, "sealed, its clone", seg.Clone(), us, want)
}
