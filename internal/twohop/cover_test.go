package twohop

import (
	"fmt"
	"math/rand"
	"testing"

	"hopi/internal/graph"
	"hopi/internal/segment"
)

func TestCoverAddAndLookup(t *testing.T) {
	c := NewCover(4, false)
	c.AddOut(0, 2, 0)
	c.AddIn(1, 2, 0)
	if !c.Reaches(0, 1) {
		t.Error("common center 2 should connect 0→1")
	}
	if c.Reaches(1, 0) {
		t.Error("no labels for 1→0")
	}
	if !c.Reaches(3, 3) {
		t.Error("reflexive reachability must hold")
	}
}

func TestCoverImplicitSelfEntries(t *testing.T) {
	c := NewCover(3, false)
	// Center is the target itself: stored only in Lout(u).
	c.AddOut(0, 1, 0)
	if !c.Reaches(0, 1) {
		t.Error("v ∈ Lout(u) should connect")
	}
	// Center is the source itself: stored only in Lin(v).
	c.AddIn(2, 0, 0)
	if !c.Reaches(0, 2) {
		t.Error("u ∈ Lin(v) should connect")
	}
}

func TestCoverSelfEntriesDropped(t *testing.T) {
	c := NewCover(2, false)
	c.AddOut(0, 0, 0)
	c.AddIn(1, 1, 0)
	if c.Size() != 0 {
		t.Errorf("self entries must not be stored, size = %d", c.Size())
	}
}

func TestCoverDedup(t *testing.T) {
	c := NewCover(2, true)
	c.AddOut(0, 1, 5)
	c.AddOut(0, 1, 3)
	c.AddOut(0, 1, 7)
	if len(c.Out[0]) != 1 {
		t.Fatalf("dup centers kept: %v", c.Out[0])
	}
	if c.Out[0][0].Dist != 3 {
		t.Errorf("min dist not kept: %v", c.Out[0])
	}
}

func TestCoverDistance(t *testing.T) {
	c := NewCover(4, true)
	// 0 → center 2 (dist 1), center 2 → 1 (dist 2) ⇒ dist(0,1)=3
	c.AddOut(0, 2, 1)
	c.AddIn(1, 2, 2)
	// Also a direct entry: v=3 in Lout(0) with dist 5.
	c.AddOut(0, 3, 5)
	if d := c.Distance(0, 1); d != 3 {
		t.Errorf("Distance(0,1) = %d, want 3", d)
	}
	if d := c.Distance(0, 3); d != 5 {
		t.Errorf("Distance(0,3) = %d, want 5", d)
	}
	if d := c.Distance(0, 0); d != 0 {
		t.Errorf("Distance(0,0) = %d, want 0", d)
	}
	if d := c.Distance(1, 0); d != graph.InfDist {
		t.Errorf("Distance(1,0) = %d, want InfDist", d)
	}
}

func TestCoverDistanceTakesMinOverCenters(t *testing.T) {
	c := NewCover(4, true)
	c.AddOut(0, 1, 4)
	c.AddIn(3, 1, 4)
	c.AddOut(0, 2, 1)
	c.AddIn(3, 2, 1)
	if d := c.Distance(0, 3); d != 2 {
		t.Errorf("Distance = %d, want min over centers = 2", d)
	}
}

func TestCoverFinishSortsAndDedupes(t *testing.T) {
	c := NewCover(1, false)
	c.Out[0] = []Entry{{Center: 5}, {Center: 2}, {Center: 5}, {Center: 9}, {Center: 2}}
	c.Finish()
	want := []int32{2, 5, 9}
	if len(c.Out[0]) != 3 {
		t.Fatalf("Out[0] = %v", c.Out[0])
	}
	for i, e := range c.Out[0] {
		if e.Center != want[i] {
			t.Fatalf("Out[0] = %v", c.Out[0])
		}
	}
}

func TestCoverCloneIndependent(t *testing.T) {
	c := NewCover(2, false)
	c.AddOut(0, 1, 0)
	cl := c.Clone()
	cl.AddOut(0, 2, 0) // hypothetical center id 2 > n is fine for the label list
	if len(c.Out[0]) != 1 {
		t.Error("clone shares label storage")
	}
}

func TestVerifyCatchesIncomplete(t *testing.T) {
	g := graph.NewDigraph(2)
	g.AddEdge(0, 1)
	cl := graph.NewClosure(g)
	empty := NewCover(2, false)
	if err := Verify(empty, cl); err == nil {
		t.Error("Verify should reject an empty cover for a non-empty closure")
	}
}

func TestVerifyCatchesUnsound(t *testing.T) {
	g := graph.NewDigraph(2) // no edges
	cl := graph.NewClosure(g)
	c := NewCover(2, false)
	c.AddOut(0, 1, 0) // claims 0 → 1
	if err := Verify(c, cl); err == nil {
		t.Error("Verify should reject a cover with phantom connections")
	}
}

func randomDigraph(rng *rand.Rand, n, m int) *graph.Digraph {
	g := graph.NewDigraph(n)
	for i := 0; i < m; i++ {
		g.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return g
}

// TestCloneCopyOnWrite mutates a cover and a growing family of its
// clones independently, without a base and over a sealed one (sealing
// the original mid-way), and checks each against a deep-copied
// reference that saw the same mutations: no write through one cover
// may show in another.
func TestCloneCopyOnWrite(t *testing.T) {
	for _, seg := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		const n = 50
		c := randomCover(rng, n, true)
		var store *segment.Store
		if seg {
			c, store = sealCover(t, t.TempDir(), c)
		}
		deepCopy := func(c *Cover) *Cover {
			r := NewCover(0, c.WithDist)
			r.Apply(c.SnapshotDeltas())
			return r
		}
		covers, refs := []*Cover{c}, []*Cover{deepCopy(c)}
		for round := 0; round < 6; round++ {
			k := rng.Intn(len(covers))
			covers = append(covers, covers[k].Clone())
			refs = append(refs, deepCopy(refs[k]))
			for i := 0; i < 300; i++ {
				j := rng.Intn(len(covers))
				v, ctr := int32(rng.Intn(n)), int32(rng.Intn(n))
				d := uint32(rng.Intn(5))
				drop := func(center int32) bool { return center%3 == ctr%3 }
				var entries []Entry // SetOut stores what it is given; no self entries
				for _, e := range []Entry{{Center: ctr, Dist: d}, {Center: (ctr + 7) % n, Dist: d + 1}} {
					if e.Center != v {
						entries = append(entries, e)
					}
				}
				op := rng.Intn(9)
				for _, x := range []*Cover{covers[j], refs[j]} {
					switch op {
					case 0, 1:
						x.AddIn(v, ctr, d)
					case 2, 3:
						x.AddOut(v, ctr, d)
					case 4:
						x.RemoveIn(v, ctr)
					case 5:
						x.RemoveOut(v, ctr)
					case 6:
						x.FilterIn(v, drop)
					case 7:
						x.ClearOut(v)
					case 8:
						x.SetOut(v, append([]Entry(nil), entries...))
					}
				}
			}
			if seg && round == 3 {
				st, err := store.Seal(2, covers[0].N(), int64(covers[0].Size()), covers[0].DeltaRecords())
				if err != nil {
					t.Fatal(err)
				}
				covers[0].SealSwap(NewBase(st, nil, nil, nil), covers[0].N(), covers[0].Size())
			}
			for j := range covers {
				checkEqual(t, refs[j], covers[j], fmt.Sprintf("seg=%v round %d cover %d", seg, round, j))
			}
		}
	}
}
