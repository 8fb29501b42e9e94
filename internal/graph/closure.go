package graph

import (
	"math"
	"math/bits"
)

// Closure is the irreflexive transitive closure of a digraph: Reach[u]
// is the bitset of nodes v ≠ u with a directed path u →* v. u is never
// a member of Reach[u], even when it lies on a cycle, and a distance
// closure's D(u,u) is 0: reflexive reachability is handled at query
// level, exactly as the HOPI cover omits self entries.
type Closure struct {
	Reach []Bitset
}

// NewClosure computes the transitive closure via a dynamic program on
// the SCC condensation (componentReach); members of a non-trivial
// component share its reach set minus themselves.
func NewClosure(g *Digraph) *Closure {
	scc, compReach := componentReach(g)
	reach := make([]Bitset, g.N())
	for u := range reach {
		c := scc.Comp[u]
		if len(scc.Comps[c]) == 1 {
			reach[u] = compReach[c]
		} else {
			r := compReach[c].Clone()
			r.Clear(u) // irreflexive
			reach[u] = r
		}
	}
	return &Closure{Reach: reach}
}

// componentReach returns, per strongly connected component, the set of
// nodes reachable from it, its own members included only when it is
// cyclic. Components are processed in the reverse topological order
// Tarjan emits: a component's reach set is the union of its successor
// components' reach sets plus those components themselves.
func componentReach(g *Digraph) (*SCCResult, []Bitset) {
	n := g.N()
	scc := SCC(g)
	dag := scc.Condensation(g)
	compReach := make([]Bitset, dag.N())
	for c := range compReach { // Tarjan order: successors first
		r := NewBitset(n)
		for _, sc := range dag.Succ(int32(c)) {
			r.Or(compReach[sc])
			for _, v := range scc.Comps[sc] {
				r.Set(int(v))
			}
		}
		// Members of a non-trivial component reach each other. Digraph
		// drops self loops, so single-node components are acyclic.
		if len(scc.Comps[c]) > 1 {
			for _, v := range scc.Comps[c] {
				r.Set(int(v))
			}
		}
		compReach[c] = r
	}
	return scc, compReach
}

// N returns the number of nodes.
func (c *Closure) N() int { return len(c.Reach) }

// Has reports whether u →* v with u ≠ v (use u==v for the reflexive
// case at the call site).
func (c *Closure) Has(u, v int32) bool { return c.Reach[u].Has(int(v)) }

// Connections returns the total number of (u,v) pairs, u ≠ v, with a
// path u →* v. This is the quantity the paper calls the size of the
// transitive closure (e.g. 344,992,370 for its DBLP subset).
func (c *Closure) Connections() int64 {
	var total int64
	for _, r := range c.Reach {
		total += int64(r.Count())
	}
	return total
}

// Bytes returns the memory the reach rows address, 8 bytes per word.
func (c *Closure) Bytes() int64 {
	var words int64
	for _, r := range c.Reach {
		words += int64(len(r))
	}
	return 8 * words
}

// CountConnections computes the closure size of g straight off the
// condensation DP, with one reach set per component and none per node:
// every member of a component reaches the component's reach set, minus
// itself when the component is cyclic.
func CountConnections(g *Digraph) int64 {
	scc, compReach := componentReach(g)
	var total int64
	for c, members := range scc.Comps {
		size := int64(len(members))
		total += size * int64(compReach[c].Count())
		if size > 1 {
			total -= size
		}
	}
	return total
}

// DistClosure is a transitive closure that also knows the shortest-path
// length of every connection, stored compactly: the Closure's reach
// rows, cut from one slab; one rank per row word; and one length per
// connection in Dist, row after row and ascending v within a row, so
// that the lengths line up with the set bits of Reach. For v in word k
// of row u,
//
//	D(u,v) = Dist[RowRank(u)[k] + popcount(Reach[u][k] & (bit(v)−1))]
//
// Memory is n²/8 bytes of rows, n²/16 of ranks and 4 bytes per
// connection, where a dense matrix takes 4n² whatever the closure's
// density; the closure budget (§4.3) keeps partitions sparse.
type DistClosure struct {
	Closure
	// Dist holds the length of every connection, aligned with the set
	// bits of Reach as above.
	Dist  []uint32
	slab  []uint64 // the Reach rows back to back: word k of row u is slab[u*words+k]
	rank  []uint32 // rank[u*words+k]: index in Dist of row u's first connection in word k
	words int      // words per row
}

// NewDistClosure runs one BFS per node into one reused scratch row.
func NewDistClosure(g *Digraph) *DistClosure {
	return NewDistClosureRows(g.N(), g.bfsInto)
}

// NewDistClosureRows builds the distance closure of n nodes one row at
// a time. fill(u, dist, reached) receives a scratch row with every
// entry InfDist; it writes the shortest-path length from u into dist[v]
// for every v that u reaches and returns reached with each such v
// appended once (u itself may be among them). The scratch row and
// reached slice are reused from row to row.
func NewDistClosureRows(n int, fill func(u int32, dist []uint32, reached []int32) []int32) *DistClosure {
	words := (n + wordBits - 1) / wordBits
	dc := &DistClosure{
		Closure: Closure{Reach: make([]Bitset, n)},
		slab:    make([]uint64, n*words),
		rank:    make([]uint32, n*words),
		words:   words,
	}
	scratch := make([]uint32, n)
	for i := range scratch {
		scratch[i] = InfDist
	}
	var reached []int32
	for u := 0; u < n; u++ {
		row := Bitset(dc.slab[u*words : (u+1)*words : (u+1)*words])
		dc.Reach[u] = row
		reached = fill(int32(u), scratch, reached[:0])
		for _, v := range reached {
			if int(v) != u {
				row.Set(int(v))
			}
		}
		if uint64(len(dc.Dist)+len(reached)) > math.MaxUint32 {
			panic("graph: distance closure over 2^32 connections")
		}
		ranks := dc.rank[u*words : (u+1)*words]
		for k, word := range row {
			ranks[k] = uint32(len(dc.Dist))
			for ; word != 0; word &= word - 1 {
				dc.Dist = append(dc.Dist, scratch[k*wordBits+bits.TrailingZeros64(word)])
			}
		}
		for _, v := range reached {
			scratch[v] = InfDist
		}
	}
	return dc
}

// D returns the length of the shortest path u → v: 0 if u == v, InfDist
// when v is unreachable.
func (dc *DistClosure) D(u, v int32) uint32 {
	if u == v {
		return 0
	}
	i := int(u)*dc.words + int(v)/wordBits
	below := uint64(1)<<(uint(v)%wordBits) - 1
	word := dc.slab[i]
	if word&(below+1) == 0 {
		return InfDist
	}
	return dc.Dist[dc.rank[i]+uint32(bits.OnesCount64(word&below))]
}

// RowRank returns row u's word ranks: the length of a connection (u,v)
// with v in word k is Dist[RowRank(u)[k] + popcount(Reach[u][k] below
// v's bit)].
func (dc *DistClosure) RowRank(u int32) []uint32 {
	return dc.rank[int(u)*dc.words : (int(u)+1)*dc.words]
}

// ExpandRow writes into col, of length ≥ n, the length D(u,v) for every
// v that u reaches, and 0 for u itself; other entries are left as they
// are.
func (dc *DistClosure) ExpandRow(u int32, col []uint32) {
	i := dc.rank[int(u)*dc.words]
	for k, word := range dc.Reach[u] {
		for ; word != 0; word &= word - 1 {
			col[k*wordBits+bits.TrailingZeros64(word)] = dc.Dist[i]
			i++
		}
	}
	col[u] = 0
}

// Bytes returns the memory the distance closure holds: its rows, ranks
// and lengths.
func (dc *DistClosure) Bytes() int64 {
	return dc.Closure.Bytes() + 4*int64(len(dc.rank)) + 4*int64(cap(dc.Dist))
}
