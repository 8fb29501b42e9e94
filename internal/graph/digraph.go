package graph

import "sort"

// Digraph is a mutable directed graph over dense node indices [0, n).
// Both forward and backward adjacency lists are maintained so that
// ancestor-side traversals (reverse BFS) are as cheap as descendant-side
// ones — the HOPI maintenance algorithms need both directions.
type Digraph struct {
	succ [][]int32
	pred [][]int32
	m    int // number of edges
}

// NewDigraph returns an edgeless graph with n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{succ: make([][]int32, n), pred: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.succ) }

// AddNodes appends k isolated nodes and returns the index of the first
// one. Existing node indices are unaffected, which is what incremental
// document insertion needs.
func (g *Digraph) AddNodes(k int) int32 {
	first := int32(len(g.succ))
	g.succ = append(g.succ, make([][]int32, k)...)
	g.pred = append(g.pred, make([][]int32, k)...)
	return first
}

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the edge u→v. Parallel edges are ignored; self loops
// are ignored (the closure is reflexive by convention, so a self loop
// carries no information).
func (g *Digraph) AddEdge(u, v int32) {
	if u == v {
		return
	}
	for _, w := range g.succ[u] {
		if w == v {
			return
		}
	}
	g.succ[u] = append(g.succ[u], v)
	g.pred[v] = append(g.pred[v], u)
	g.m++
}

// HasEdge reports whether the edge u→v exists.
func (g *Digraph) HasEdge(u, v int32) bool {
	for _, w := range g.succ[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Succ returns the successors of u. The returned slice must not be
// modified.
func (g *Digraph) Succ(u int32) []int32 { return g.succ[u] }

// Pred returns the predecessors of u. The returned slice must not be
// modified.
func (g *Digraph) Pred(u int32) []int32 { return g.pred[u] }

// Sort orders all adjacency lists ascending; useful for deterministic
// iteration in tests and generators.
func (g *Digraph) Sort() {
	for i := range g.succ {
		sort.Slice(g.succ[i], func(a, b int) bool { return g.succ[i][a] < g.succ[i][b] })
		sort.Slice(g.pred[i], func(a, b int) bool { return g.pred[i][a] < g.pred[i][b] })
	}
}

// ReachableFrom returns the set of nodes reachable from start by
// following edges forward, excluding start itself unless it lies on a
// cycle back to itself.
func (g *Digraph) ReachableFrom(start int32) Bitset {
	return Reach(g.N(), []int32{start}, g.next(false))
}

// ReachingTo returns the set of nodes that can reach start (its
// ancestors), excluding start itself unless it lies on a cycle.
func (g *Digraph) ReachingTo(start int32) Bitset {
	return Reach(g.N(), []int32{start}, g.next(true))
}

// MultiSourceReachable returns all nodes reachable from any of the
// sources (sources themselves included only if re-reached).
func (g *Digraph) MultiSourceReachable(sources []int32) Bitset {
	return Reach(g.N(), sources, g.next(false))
}

// BFSFrom returns, for every node, the length of the shortest directed
// path from start (0 for start itself); unreachable nodes get InfDist.
func (g *Digraph) BFSFrom(start int32) []uint32 {
	dist := make([]uint32, g.N())
	for i := range dist {
		dist[i] = InfDist
	}
	g.bfsInto(start, dist, nil)
	return dist
}

// bfsInto is BFSFrom into a row whose entries are all InfDist. It
// appends every node it reaches to queue, start first, and returns it.
func (g *Digraph) bfsInto(start int32, dist []uint32, queue []int32) []int32 {
	dist[start] = 0
	queue = append(queue, start)
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for _, v := range g.succ[u] {
			if dist[v] == InfDist {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// ReverseBFSFrom returns shortest-path distances *to* start: dist[v] is
// the length of the shortest path v → start.
func (g *Digraph) ReverseBFSFrom(start int32) []uint32 {
	dist := make([]uint32, g.N())
	for i := range dist {
		dist[i] = InfDist
	}
	dist[start] = 0
	queue := []int32{start}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.pred[u] {
			if dist[v] == InfDist {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// InfDist marks an unreachable node in distance vectors and matrices.
const InfDist = ^uint32(0)
