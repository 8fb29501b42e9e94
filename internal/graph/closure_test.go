package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSCCSimple(t *testing.T) {
	// Two 2-cycles joined by a bridge, plus an isolated node.
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	s := SCC(g)
	if s.NumComps() != 3 {
		t.Fatalf("NumComps = %d, want 3", s.NumComps())
	}
	if s.Comp[0] != s.Comp[1] || s.Comp[2] != s.Comp[3] {
		t.Error("cycle members split across components")
	}
	if s.Comp[0] == s.Comp[2] || s.Comp[4] == s.Comp[0] {
		t.Error("distinct SCCs merged")
	}
	// Tarjan order is reverse topological: {2,3} must be numbered
	// before {0,1} because {0,1} → {2,3}.
	if s.Comp[2] > s.Comp[0] {
		t.Error("component numbering not reverse topological")
	}
}

func TestSCCDeepChainNoOverflow(t *testing.T) {
	const n = 200000
	g := NewDigraph(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(int32(i), int32(i+1))
	}
	s := SCC(g)
	if s.NumComps() != n {
		t.Fatalf("NumComps = %d, want %d", s.NumComps(), n)
	}
}

func TestCondensation(t *testing.T) {
	g := NewDigraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	s := SCC(g)
	dag := s.Condensation(g)
	if dag.N() != 3 {
		t.Fatalf("dag N = %d", dag.N())
	}
	if dag.M() != 2 {
		t.Fatalf("dag M = %d, want 2", dag.M())
	}
}

func TestClosureChainAndCycle(t *testing.T) {
	g := NewDigraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1) // cycle {1,2}
	g.AddEdge(2, 3)
	c := NewClosure(g)
	if !c.Has(0, 3) || !c.Has(0, 1) || !c.Has(0, 2) {
		t.Error("0 should reach 1,2,3")
	}
	if c.Has(0, 0) {
		t.Error("closure must be irreflexive for acyclic nodes")
	}
	if c.Has(1, 1) || c.Has(2, 2) {
		t.Error("closure excludes self even on cycles (reflexivity is handled at query level)")
	}
	if !c.Has(1, 2) || !c.Has(2, 1) {
		t.Error("cycle members should reach each other")
	}
	if c.Has(3, 0) || c.Has(4, 0) || c.Has(0, 4) {
		t.Error("phantom connections")
	}
	// connections: 0→{1,2,3}, 1→{2,3}, 2→{1,3} ... 1→1? no. So 3+2+2=7... plus 1 reaches 1? excluded.
	if got := c.Connections(); got != 7 {
		t.Errorf("Connections = %d, want 7", got)
	}
	if got := CountConnections(g); got != 7 {
		t.Errorf("CountConnections = %d, want 7", got)
	}
}

// Property: closure agrees with per-node DFS on random graphs,
// including cyclic ones.
func TestClosureQuickVsNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(35)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := NewClosure(g)
		if CountConnections(g) != c.Connections() {
			return false
		}
		for u := int32(0); u < int32(n); u++ {
			want := naiveReach(g, u)
			for v := 0; v < n; v++ {
				w := want[v] && v != int(u)
				if c.Has(u, int32(v)) != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceMatrixVsBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(3*n))
		m := NewDistanceMatrix(g)
		for u := int32(0); u < int32(n); u++ {
			d := g.BFSFrom(u)
			for v := int32(0); v < int32(n); v++ {
				if m.D(u, v) != d[v] {
					t.Fatalf("D(%d,%d) = %d, want %d", u, v, m.D(u, v), d[v])
				}
			}
		}
	}
}

func BenchmarkClosureRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 2000, 6000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewClosure(g)
	}
}
