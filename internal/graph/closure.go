package graph

// Closure is the (irreflexive) transitive closure of a digraph:
// Reach[u] is the bitset of nodes v ≠ u with a directed path u →* v.
// Nodes on a cycle through u do include u... no: by convention u is
// never a member of Reach[u]; reflexive reachability is handled at
// query level, exactly as the HOPI cover omits self entries.
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

// DistanceMatrix holds all-pairs shortest-path lengths for a (small)
// digraph: Dist[u][v] is the length of the shortest path u → v, 0 on
// the diagonal, InfDist when unreachable. Memory is Θ(n²); callers cap
// partition sizes so this fits comfortably (the same role the memory
// budget plays for the paper's in-memory transitive closures).
type DistanceMatrix struct {
	Dist [][]uint32
}

// NewDistanceMatrix runs one BFS per node.
func NewDistanceMatrix(g *Digraph) *DistanceMatrix {
	n := g.N()
	d := make([][]uint32, n)
	for u := 0; u < n; u++ {
		d[u] = g.BFSFrom(int32(u))
	}
	return &DistanceMatrix{Dist: d}
}

// D returns the distance u → v (0 if u==v, InfDist if unreachable).
func (m *DistanceMatrix) D(u, v int32) uint32 { return m.Dist[u][v] }
