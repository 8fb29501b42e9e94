package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a digraph with n nodes and roughly m random edges.
func randomGraph(rng *rand.Rand, n, m int) *Digraph {
	g := NewDigraph(n)
	for i := 0; i < m; i++ {
		g.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return g
}

func TestDigraphAddEdge(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // duplicate ignored
	g.AddEdge(1, 1) // self loop ignored
	g.AddEdge(1, 2)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if len(g.Pred(1)) != 1 || g.Pred(1)[0] != 0 {
		t.Errorf("Pred(1) = %v", g.Pred(1))
	}
}

func TestReachabilityChain(t *testing.T) {
	// 0 → 1 → 2 → 3, plus 3 → 1 creating a cycle {1,2,3}.
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	r := g.ReachableFrom(0)
	for v := 1; v <= 3; v++ {
		if !r.Has(v) {
			t.Errorf("0 should reach %d", v)
		}
	}
	if r.Has(0) || r.Has(4) {
		t.Error("wrong reach set for 0")
	}
	r1 := g.ReachableFrom(1)
	if !r1.Has(1) {
		t.Error("1 lies on a cycle, should reach itself")
	}
	anc := g.ReachingTo(3)
	for v := 0; v <= 2; v++ {
		if !anc.Has(v) {
			t.Errorf("%d should reach 3", v)
		}
	}
	if !anc.Has(3) {
		t.Error("3 on cycle should reach itself")
	}
}

func TestMultiSourceReachable(t *testing.T) {
	g := NewDigraph(6)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(3, 4)
	r := g.MultiSourceReachable([]int32{0, 1})
	for _, v := range []int{2, 3, 4} {
		if !r.Has(v) {
			t.Errorf("should reach %d", v)
		}
	}
	if r.Has(0) || r.Has(1) || r.Has(5) {
		t.Error("wrong multi-source set")
	}
}

func TestBFSDistances(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2) // shortcut
	g.AddEdge(2, 3)
	d := g.BFSFrom(0)
	want := []uint32{0, 1, 1, 2, InfDist}
	for i, w := range want {
		if d[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], w)
		}
	}
	rd := g.ReverseBFSFrom(3)
	if rd[0] != 2 || rd[2] != 1 || rd[3] != 0 || rd[4] != InfDist {
		t.Errorf("reverse dist = %v", rd)
	}
}

// Property: ReachableFrom agrees with a naive DFS on random graphs.
func TestReachableQuickVsNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n))
		start := int32(rng.Intn(n))
		got := g.ReachableFrom(start)
		want := naiveReach(g, start)
		for v := 0; v < n; v++ {
			if got.Has(v) != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func naiveReach(g *Digraph, start int32) []bool {
	seen := make([]bool, g.N())
	var dfs func(u int32)
	dfs = func(u int32) {
		for _, v := range g.Succ(u) {
			if !seen[v] {
				seen[v] = true
				dfs(v)
			}
		}
	}
	dfs(start)
	return seen
}
