package core

import (
	"sync"

	"hopi/internal/graph"
	"hopi/internal/xmlmodel"
)

// cyclicInfo records which elements lie on a nontrivial cycle of the
// element graph (links — intra- or inter-document — can close cycles
// that plain XML trees never have) and, on demand, the length of the
// shortest cycle through each such element.
//
// The descendant axis ("//") needs this: the 2-hop cover only stores
// irreflexive connections (self entries are implicit, §3.4), so it can
// prove u →⁺ u only by accident. cyclicInfo is the authoritative
// answer, derived wholly from the collection and never persisted.
//
// Derivation is one linear SCC pass — that is all the boolean
// evaluators consume (the `on` bitset), so snapshot publication stays
// O(V+E). Shortest-cycle distances cost one BFS per component member,
// quadratic in component size; only ranked self-matches read them, so
// they are computed lazily per component and memoized. The membership
// data is immutable after construction and snapshot clones share the
// whole struct by pointer; the lazy distance cache is mutex-guarded
// for the concurrent readers behind one snapshot.
type cyclicInfo struct {
	on    graph.Bitset
	comp  map[int32]int32 // cyclic node → index into comps
	comps []compGraph     // nontrivial SCCs

	mu   sync.Mutex
	done []bool // comps whose distances have been computed
	dist map[int32]uint32
}

// compGraph is one nontrivial SCC's induced subgraph (every cycle
// through a member stays inside it). Retaining just these — instead of
// the whole element graph — keeps the shared cyclicInfo's memory
// bounded by the cyclic region, which is tiny in mostly-acyclic
// collections.
type compGraph struct {
	sub     *graph.Digraph
	globals []int32
}

// computeCyclic derives the cycle membership for a collection (one
// SCC pass plus linear per-component subgraph extraction; distances
// stay lazy).
func computeCyclic(c *xmlmodel.Collection) *cyclicInfo {
	g := c.ElementGraph()
	scc := graph.SCC(g)
	info := &cyclicInfo{
		on:   graph.NewBitset(g.N()),
		comp: map[int32]int32{},
		dist: map[int32]uint32{},
	}
	for _, members := range scc.Comps {
		// Digraph drops self loops, so single-node components are
		// acyclic.
		if len(members) < 2 {
			continue
		}
		li := int32(len(info.comps))
		sub, globals := g.Subgraph(members)
		info.comps = append(info.comps, compGraph{sub: sub, globals: globals})
		for _, v := range members {
			info.on.Set(int(v))
			info.comp[v] = li
		}
	}
	info.done = make([]bool, len(info.comps))
	return info
}

func (ci *cyclicInfo) onCycle(u int32) bool { return ci.on.Has(int(u)) }

// sameComp reports whether u and v lie in one nontrivial SCC, i.e.
// whether an edge between them can lie on a cycle.
func (ci *cyclicInfo) sameComp(u, v int32) bool {
	cu, ok := ci.comp[u]
	if !ok {
		return false
	}
	cv, ok := ci.comp[v]
	return ok && cu == cv
}

// hasCycle reports whether g has a cycle: a strongly connected
// component of two or more nodes (Digraph drops self loops).
func hasCycle(g *graph.Digraph) bool {
	for _, members := range graph.SCC(g).Comps {
		if len(members) > 1 {
			return true
		}
	}
	return false
}

// cycleDist returns the shortest cycle length through u (InfDist when
// u is not on any cycle), computing the distances of u's whole
// component on first use.
func (ci *cyclicInfo) cycleDist(u int32) uint32 {
	li, ok := ci.comp[u]
	if !ok {
		return graph.InfDist
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if !ci.done[li] {
		ci.computeComponent(li)
		ci.done[li] = true
	}
	return ci.dist[u]
}

// computeComponent fills the shortest-cycle distances of one
// nontrivial SCC. Restricting the BFS to the component subgraph is
// exact: the shortest cycle through u is min over predecessors p of u
// of d(u→p) + 1.
func (ci *cyclicInfo) computeComponent(li int32) {
	cg := ci.comps[li]
	for v := int32(0); v < int32(len(cg.globals)); v++ {
		d := cg.sub.BFSFrom(v)
		best := graph.InfDist
		for _, p := range cg.sub.Pred(v) {
			if d[p] != graph.InfDist && d[p]+1 < best {
				best = d[p] + 1
			}
		}
		ci.dist[cg.globals[v]] = best
	}
}
