// Package psg implements the partition-level skeleton graph and the
// two algorithms for joining partition covers into a global HOPI
// cover: the paper's new structurally recursive join (§4.1, Theorem 1
// and Corollary 1) and the original per-link incremental join (§3.3),
// which serves as the baseline of Table 2.
package psg

import (
	"hopi/internal/graph"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// PartitionData carries everything the join algorithms need to know
// about one partition: its documents, its local element graph, the
// local↔global ID mapping, and its 2-hop cover (over local indices).
type PartitionData struct {
	Docs    []int
	G       *graph.Digraph
	Globals []int32
	Local   map[int32]int32
	Cover   *twohop.Cover
}

// NewPartitionData wires up the local index map.
func NewPartitionData(docs []int, g *graph.Digraph, globals []int32, cover *twohop.Cover) *PartitionData {
	local := make(map[int32]int32, len(globals))
	for i, id := range globals {
		local[id] = int32(i)
	}
	return &PartitionData{Docs: docs, G: g, Globals: globals, Local: local, Cover: cover}
}

// PSG is the partition-level skeleton graph S(P) (Definition 1): its
// nodes are the endpoints of cross-partition links; its edges are the
// cross-partition links plus target→source edges for endpoints that
// are connected within the same partition.
type PSG struct {
	Nodes    []int32 // global element IDs
	Index    map[int32]int32
	G        *graph.Digraph // over PSG-local indices
	IsSource []bool
	IsTarget []bool
	// EdgeDist holds shortest-path edge weights for distance-aware
	// joins: 1 for link edges, the intra-partition shortest distance
	// for target→source edges.
	EdgeDist map[[2]int32]uint32
}

// Build constructs the PSG for a partitioning. Partition covers answer
// the "connected within the same partition" tests (and provide the
// intra-partition distances when withDist is set).
func Build(c *xmlmodel.Collection, cross []xmlmodel.Link, partOfID func(int32) int, parts []*PartitionData, withDist bool) *PSG {
	s := &PSG{Index: map[int32]int32{}, EdgeDist: map[[2]int32]uint32{}}
	add := func(id int32) int32 {
		if li, ok := s.Index[id]; ok {
			return li
		}
		li := int32(len(s.Nodes))
		s.Index[id] = li
		s.Nodes = append(s.Nodes, id)
		return li
	}
	type edge struct {
		from, to int32
		dist     uint32
	}
	var edges []edge
	for _, l := range cross {
		f := add(l.From)
		t := add(l.To)
		edges = append(edges, edge{f, t, 1})
	}
	n := len(s.Nodes)
	s.G = graph.NewDigraph(n)
	s.IsSource = make([]bool, n)
	s.IsTarget = make([]bool, n)
	for _, l := range cross {
		s.IsSource[s.Index[l.From]] = true
		s.IsTarget[s.Index[l.To]] = true
	}
	// target→source edges within each partition
	byPart := map[int][]int32{}
	for li, id := range s.Nodes {
		byPart[partOfID(id)] = append(byPart[partOfID(id)], int32(li))
	}
	for pi, members := range byPart {
		pd := parts[pi]
		for _, t := range members {
			if !s.IsTarget[t] {
				continue
			}
			tl := pd.Local[s.Nodes[t]]
			for _, src := range members {
				if !s.IsSource[src] || src == t {
					continue
				}
				sl := pd.Local[s.Nodes[src]]
				if !pd.Cover.Reaches(tl, sl) {
					continue
				}
				var d uint32 = 0
				if withDist {
					d = pd.Cover.Distance(tl, sl)
				}
				edges = append(edges, edge{t, src, d})
			}
		}
	}
	for _, e := range edges {
		s.G.AddEdge(e.from, e.to)
		key := [2]int32{e.from, e.to}
		if old, ok := s.EdgeDist[key]; !ok || e.dist < old {
			s.EdgeDist[key] = e.dist
		}
	}
	return s
}

// HBar is the paper's H̄ cover over the PSG (§4.1): for every link
// source s, the set of link targets reachable from s in S(P) (with
// shortest PSG distances when built distance-aware); H̄in(t) = {t} is
// implicit. Even though this cover may not be the smallest one, it can
// be computed quickly from the PSG with an adapted transitive-closure
// algorithm, which is exactly what this type holds.
type HBar struct {
	// OutTargets[s] lists, for PSG-local source s, the PSG-local
	// targets reachable from s and their distances, ascending; it is
	// empty for a node that is no source or reaches no other target.
	OutTargets [][]twohop.Entry
}

// ComputeHBar runs one traversal per link source: plain DFS when
// distances are not needed, Dijkstra (all edge weights ≥ 1) when they
// are. Memory is O(V+E) per traversal regardless of how large the PSG
// gets — this is why no further partitioning of the PSG is needed in
// this implementation, where the paper's recursion bottoms out. The
// traversals are independent and run on workers goroutines.
func ComputeHBar(s *PSG, withDist bool, workers int) *HBar {
	n := len(s.Nodes)
	h := &HBar{OutTargets: make([][]twohop.Entry, n)}
	onPool(workers, n, func() func(int) {
		var sp shortestPaths
		if withDist {
			sp = newShortestPaths(n)
		}
		return func(i int) { h.OutTargets[i] = hbarOut(s, int32(i), withDist, &sp) }
	})
	return h
}

// shortestPaths is the scratch one worker's Dijkstra runs reuse: a
// distance row that is all InfDist between runs, the reached nodes and
// the queue.
type shortestPaths struct {
	dist    []uint32
	reached []int32
	pq      distQueue
}

func newShortestPaths(n int) shortestPaths {
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = graph.InfDist
	}
	return shortestPaths{dist: dist}
}

// hbarOut is H̄out of PSG node src: nil unless src is a link source.
func hbarOut(s *PSG, src int32, withDist bool, sp *shortestPaths) []twohop.Entry {
	if !s.IsSource[src] {
		return nil
	}
	n := len(s.Nodes)
	var entries []twohop.Entry
	if withDist {
		dist := sp.dist
		sp.reached = s.dijkstra(src, dist, sp.reached[:0], &sp.pq)
		for v := int32(0); v < int32(n); v++ {
			if v != src && s.IsTarget[v] && dist[v] != graph.InfDist {
				entries = append(entries, twohop.Entry{Center: v, Dist: dist[v]})
			}
		}
		// a source that is also a target reaches itself trivially;
		// self entries stay implicit and are not recorded.
		for _, v := range sp.reached {
			dist[v] = graph.InfDist
		}
	} else {
		reach := s.G.ReachableFrom(src)
		reach.ForEach(func(v int) bool {
			if int32(v) != src && s.IsTarget[v] {
				entries = append(entries, twohop.Entry{Center: int32(v), Dist: 0})
			}
			return true
		})
	}
	return entries
}

// ShortestFrom computes weighted shortest distances from the PSG-local
// source to every PSG node (graph.InfDist when unreachable). Note that
// dist[src] is 0 — the trivial empty path. Callers needing the proper
// (length ≥ 1) self-distance through a genuine cycle must derive it as
// min over incoming edges (u→src) of dist[u]+w(u,src); ComputeHBar
// sidesteps the issue by excluding self entries, but the distributed
// query tier's endpoint join (internal/shardrouter) must not — a
// cross-shard cycle back to the same link endpoint is exactly how
// //a//a self-matches across shards.
func ShortestFrom(s *PSG, src int32) []uint32 {
	sp := newShortestPaths(len(s.Nodes))
	s.dijkstra(src, sp.dist, nil, &sp.pq)
	return sp.dist
}

// dijkstra writes the shortest distances from src over the weighted PSG
// into dist, whose entries must all be InfDist, and returns reached with
// every node it reached appended, src first. pq is scratch.
func (s *PSG) dijkstra(src int32, dist []uint32, reached []int32, pq *distQueue) []int32 {
	dist[src] = 0
	reached = append(reached, src)
	*pq = append((*pq)[:0], distItem{node: src})
	for len(*pq) > 0 {
		it := pq.pop()
		if it.d > dist[it.node] {
			continue
		}
		for _, v := range s.G.Succ(it.node) {
			nd := it.d + s.EdgeDist[[2]int32{it.node, v}]
			if nd < dist[v] {
				if dist[v] == graph.InfDist {
					reached = append(reached, v)
				}
				dist[v] = nd
				pq.push(distItem{node: v, d: nd})
			}
		}
	}
	return reached
}

type distItem struct {
	node int32
	d    uint32
}

// distQueue is a min-heap of distItems by distance, typed so that a
// push does not box its item into an interface.
type distQueue []distItem

func (q *distQueue) push(it distItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if h[i].d <= h[j].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *distQueue) pop() distItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].d < h[j].d {
			j = r
		}
		if h[j].d >= h[i].d {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}
