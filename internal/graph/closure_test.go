package graph

import (
	"fmt"
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
	// connections: 0→{1,2,3}, 1→{2,3}, 2→{1,3}; no self pairs, even on the cycle
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

// cyclicGraph is randomGraph plus a cycle through the first few nodes,
// so that rows reach their own source.
func cyclicGraph(rng *rand.Rand, n int) *Digraph {
	g := NewDigraph(n)
	if n == 0 {
		return g
	}
	g = randomGraph(rng, n, rng.Intn(3*n))
	k := min(n, 2+rng.Intn(6))
	for i := 0; i < k; i++ {
		g.AddEdge(int32(i), int32((i+1)%k))
	}
	return g
}

// sameDistances checks dc against want[u][v] (InfDist when unreachable,
// 0 on the diagonal) for every pair, and that its rows are the
// irreflexive reach sets with one length per connection.
func sameDistances(t *testing.T, name string, dc *DistClosure, want [][]uint32) {
	t.Helper()
	n := len(want)
	if dc.N() != n {
		t.Fatalf("%s: %d rows, want %d", name, dc.N(), n)
	}
	col := make([]uint32, n)
	for u := int32(0); u < int32(n); u++ {
		if dc.Reach[u].Has(int(u)) {
			t.Fatalf("%s: %d is in its own reach row", name, u)
		}
		dc.ExpandRow(u, col)
		for v := int32(0); v < int32(n); v++ {
			if got := dc.D(u, v); got != want[u][v] {
				t.Fatalf("%s: D(%d,%d) = %d, want %d", name, u, v, got, want[u][v])
			}
			if reach := u != v && want[u][v] != InfDist; dc.Has(u, v) != reach {
				t.Fatalf("%s: Has(%d,%d) = %v, want %v", name, u, v, !reach, reach)
			} else if (reach || u == v) && col[v] != want[u][v] {
				t.Fatalf("%s: ExpandRow(%d)[%d] = %d, want %d", name, u, v, col[v], want[u][v])
			}
		}
	}
	if conns := dc.Connections(); int64(len(dc.Dist)) != conns {
		t.Fatalf("%s: %d lengths for %d connections", name, len(dc.Dist), conns)
	}
}

// Property: on random digraphs with cycles, across the word boundaries
// of a row, the distance closure agrees with BFS on every pair and with
// NewClosure on every reach bit.
func TestDistClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		for trial := 0; trial < 4; trial++ {
			g := cyclicGraph(rng, n)
			want := make([][]uint32, n)
			for u := range want {
				want[u] = g.BFSFrom(int32(u))
			}
			name := fmt.Sprintf("n=%d trial %d", n, trial)
			dc := NewDistClosure(g)
			sameDistances(t, name, dc, want)
			cl := NewClosure(g)
			for u := range cl.Reach {
				for k, word := range cl.Reach[u] {
					if dc.Reach[u][k] != word {
						t.Fatalf("%s: reach row %d differs from NewClosure's", name, u)
					}
				}
			}
		}
	}
}

// TestDistClosureRowsWeighted: the row-at-a-time constructor stores
// whatever lengths its rows carry — here weighted shortest paths from
// Floyd–Warshall, as psg's Dijkstra rows are.
func TestDistClosureRowsWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		g := cyclicGraph(rng, n)
		want := make([][]uint32, n)
		for u := range want {
			want[u] = make([]uint32, n)
			for v := range want[u] {
				want[u][v] = InfDist
			}
			want[u][u] = 0
			for _, v := range g.Succ(int32(u)) {
				want[u][v] = 1 + uint32(rng.Intn(9))
			}
		}
		for k := range want {
			for u := range want {
				for v := range want {
					if want[u][k] != InfDist && want[k][v] != InfDist && want[u][k]+want[k][v] < want[u][v] {
						want[u][v] = want[u][k] + want[k][v]
					}
				}
			}
		}
		dc := NewDistClosureRows(n, func(u int32, dist []uint32, reached []int32) []int32 {
			for v, d := range want[u] {
				if d != InfDist {
					dist[v] = d
					reached = append(reached, int32(v))
				}
			}
			return reached
		})
		sameDistances(t, fmt.Sprintf("weighted n=%d", n), dc, want)
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
