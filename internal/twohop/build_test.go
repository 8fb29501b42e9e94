package twohop

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hopi/internal/graph"
)

func TestBuildChain(t *testing.T) {
	g := graph.NewDigraph(5)
	for i := int32(0); i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	cl := graph.NewClosure(g)
	cover, stats := Build(cl, Options{})
	if err := Verify(cover, cl); err != nil {
		t.Fatal(err)
	}
	if stats.Centers == 0 {
		t.Error("no centers selected")
	}
	// A chain of 5 has 10 connections; a good cover is far smaller
	// than the closure (which needs 10 entries).
	if cover.Size() > 10 {
		t.Errorf("cover size %d larger than materialized closure", cover.Size())
	}
}

func TestBuildStar(t *testing.T) {
	// Star: 0..3 → 4 → 5..8. Node 4 is the perfect center: cover size
	// should be about one entry per node.
	g := graph.NewDigraph(9)
	for i := int32(0); i < 4; i++ {
		g.AddEdge(i, 4)
	}
	for i := int32(5); i < 9; i++ {
		g.AddEdge(4, i)
	}
	cl := graph.NewClosure(g)
	cover, _ := Build(cl, Options{})
	if err := Verify(cover, cl); err != nil {
		t.Fatal(err)
	}
	if cover.Size() > 8 {
		t.Errorf("star cover size = %d, want ≤ 8 (one entry per leaf)", cover.Size())
	}
}

func TestBuildCycle(t *testing.T) {
	g := graph.NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	cl := graph.NewClosure(g)
	cover, _ := Build(cl, Options{})
	if err := Verify(cover, cl); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEmptyAndSingleton(t *testing.T) {
	cl := graph.NewClosure(graph.NewDigraph(0))
	cover, _ := Build(cl, Options{})
	if cover.Size() != 0 {
		t.Error("empty graph should give empty cover")
	}
	cl1 := graph.NewClosure(graph.NewDigraph(1))
	cover1, _ := Build(cl1, Options{})
	if cover1.Size() != 0 {
		t.Error("singleton graph should give empty cover")
	}
	if !cover1.Reaches(0, 0) {
		t.Error("reflexive")
	}
}

// Property: Build produces a correct cover on random graphs (cyclic
// included).
func TestBuildQuickCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(28)
		g := randomDigraph(rng, n, rng.Intn(3*n))
		cl := graph.NewClosure(g)
		cover, _ := Build(cl, Options{Seed: seed})
		return Verify(cover, cl) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cover never exceeds the materialized closure size plus the
// node count (sanity bound: the trivial cover "every source labels all
// its targets" has exactly |T| entries).
func TestBuildQuickCompact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(28)
		g := randomDigraph(rng, n, rng.Intn(3*n))
		cl := graph.NewClosure(g)
		cover, _ := Build(cl, Options{Seed: seed})
		return int64(cover.Size()) <= cl.Connections()+int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPreselect(t *testing.T) {
	// Two chains joined at a "link target" node 3:
	// 0→1→2→3→4→5. Preselecting 3 must still give a correct cover.
	g := graph.NewDigraph(6)
	for i := int32(0); i < 5; i++ {
		g.AddEdge(i, i+1)
	}
	cl := graph.NewClosure(g)
	cover, stats := Build(cl, Options{Preselect: []int32{3}})
	if err := Verify(cover, cl); err != nil {
		t.Fatal(err)
	}
	if stats.Centers == 0 {
		t.Error("preselection did not register centers")
	}
	// Node 3 must appear as a center in Lout(0): the preselected center
	// covers (0,4) etc.
	if !hasCenter(cover.Out[0], 3) {
		t.Errorf("preselected center 3 not used for node 0: %v", cover.Out[0])
	}
}

// Property: preselection keeps covers correct on random graphs with
// random preselected nodes.
func TestBuildPreselectQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		g := randomDigraph(rng, n, rng.Intn(3*n))
		cl := graph.NewClosure(g)
		pre := make([]int32, 0, 3)
		for i := 0; i < 3; i++ {
			pre = append(pre, int32(rng.Intn(n)))
		}
		cover, _ := Build(cl, Options{Preselect: pre, Seed: seed})
		return Verify(cover, cl) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDistanceChain(t *testing.T) {
	g := graph.NewDigraph(6)
	for i := int32(0); i < 5; i++ {
		g.AddEdge(i, i+1)
	}
	dc := graph.NewDistClosure(g)
	cover, _ := BuildDistanceAware(dc, Options{})
	if err := VerifyDistance(cover, dc); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDistanceShortcut(t *testing.T) {
	// Diamond with a shortcut: 0→1→2→3 and 0→3. dist(0,3)=1 even
	// though center 1 or 2 would suggest 3.
	g := graph.NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 3)
	dc := graph.NewDistClosure(g)
	cover, _ := BuildDistanceAware(dc, Options{})
	if err := VerifyDistance(cover, dc); err != nil {
		t.Fatal(err)
	}
	if d := cover.Distance(0, 3); d != 1 {
		t.Errorf("Distance(0,3) = %d, want 1", d)
	}
}

// Property: distance-aware covers report exact BFS distances on random
// graphs.
func TestBuildDistanceQuickExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(22)
		g := randomDigraph(rng, n, rng.Intn(3*n))
		dc := graph.NewDistClosure(g)
		cover, _ := BuildDistanceAware(dc, Options{Seed: seed})
		return VerifyDistance(cover, dc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: distance-aware covers are also valid plain covers.
func TestBuildDistanceQuickReachAgrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(22)
		g := randomDigraph(rng, n, rng.Intn(3*n))
		dc := graph.NewDistClosure(g)
		cl := graph.NewClosure(g)
		cover, _ := BuildDistanceAware(dc, Options{Seed: seed})
		return Verify(cover, cl) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The distance-aware cover of a collection should cost only a modest
// factor more entries than the plain cover (the paper reports "low
// space overhead").
func TestDistanceOverheadModest(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomDigraph(rng, 60, 100)
	cl := graph.NewClosure(g)
	plain, _ := Build(cl, Options{})
	dc := graph.NewDistClosure(g)
	dist, _ := BuildDistanceAware(dc, Options{})
	if plain.Size() == 0 {
		t.Skip("degenerate random graph")
	}
	ratio := float64(dist.Size()) / float64(plain.Size())
	if ratio > 5 {
		t.Errorf("distance cover %.1fx larger than plain cover", ratio)
	}
}

func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomDigraph(rng, 40, 90)
	cl := graph.NewClosure(g)
	c1, _ := Build(cl, Options{Seed: 5})
	// closure is mutated? Build clones rows; rebuild closure to be safe.
	cl2 := graph.NewClosure(g)
	c2, _ := Build(cl2, Options{Seed: 5})
	if c1.Size() != c2.Size() {
		t.Errorf("non-deterministic build: %d vs %d", c1.Size(), c2.Size())
	}
}

func BenchmarkBuildRandom200(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomDigraph(rng, 200, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := graph.NewClosure(g)
		Build(cl, Options{})
	}
}

func BenchmarkBuildDistance100(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomDigraph(rng, 100, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc := graph.NewDistClosure(g)
		BuildDistanceAware(dc, Options{})
	}
}
