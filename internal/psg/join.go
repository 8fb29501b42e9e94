package psg

import (
	"cmp"
	"slices"

	"hopi/internal/graph"
	"hopi/internal/twohop"
	"hopi/internal/xmlmodel"
)

// NewJoinOptions tunes the §4.1 join.
type NewJoinOptions struct {
	// WithDist builds a distance-aware global cover; partition covers
	// must have been built distance-aware too.
	WithDist bool
	// FullPSGCover computes a real 2-hop cover H over the PSG
	// (Theorem 1) instead of the cheaper H̄ (Corollary 1). The paper
	// recommends H̄; the H variant exists for the ablation benchmarks.
	// It materializes the PSG closure, so it is only sensible for PSGs
	// whose closure fits in memory.
	FullPSGCover bool
	// Seed feeds the 2-hop builder when FullPSGCover is set.
	Seed int64
}

// JoinNew merges partition covers into a global cover with the
// structurally recursive algorithm of §4.1:
//
//  1. start from the component-wise union of the partition covers,
//  2. build the partition-level skeleton graph S(P),
//  3. compute H̄ (link targets as centers; Corollary 1) or a full
//     2-hop cover H of the PSG (Theorem 1),
//  4. compute the supplementary cover Ĥ by copying each link source's
//     out-labels to its partition-level ancestors and registering each
//     link target as center for its partition-level descendants.
//
// The result covers exactly the connections of G_E(X). Partition covers
// must be finished (labels sorted by center), as twohop.Build returns
// them.
func JoinNew(c *xmlmodel.Collection, cross []xmlmodel.Link, partOfID func(int32) int,
	parts []*PartitionData, opts NewJoinOptions) *twohop.Cover {

	global := unionPartitionCovers(c, parts, opts.WithDist)
	if len(cross) == 0 {
		return global
	}
	s := Build(c, cross, partOfID, parts, opts.WithDist)

	// Step 3: labels over the PSG, per PSG node and with global centers.
	// out[s] is what a link source hands to its partition-level
	// ancestors, in[t] what a link target hands to its descendants. The
	// full-H variant also labels non-sources and non-targets; those
	// lists reach no further than the node itself.
	out := make([][]twohop.Entry, len(s.Nodes))
	in := make([][]twohop.Entry, len(s.Nodes))
	if opts.FullPSGCover {
		hcov := fullPSGCover(s, opts)
		for li, gid := range s.Nodes {
			// The explicit self entry lets an ancestor of s receive s
			// itself among the copied centers.
			out[li] = append([]twohop.Entry{{Center: gid}}, remap(hcov.Out[li], s.Nodes)...)
			in[li] = append([]twohop.Entry{{Center: gid}}, remap(hcov.In[li], s.Nodes)...)
		}
	} else {
		for li, entries := range ComputeHBar(s, opts.WithDist).OutTargets {
			out[li] = remap(entries, s.Nodes)
		}
		// H̄in(t) = {t}: every target is its descendants' Lin center.
		for li, gid := range s.Nodes {
			if s.IsTarget[li] {
				in[li] = []twohop.Entry{{Center: gid}}
			}
		}
	}

	// Step 4: supplementary cover Ĥ, gathered per element.
	members := make([][]int32, len(parts))
	for li, gid := range s.Nodes {
		pi := partOfID(gid)
		members[pi] = append(members[pi], int32(li))
	}
	ga := &gatherer{psg: s, best: make([]uint32, c.NumAllocatedIDs())}
	for i := range ga.best {
		ga.best[i] = graph.InfDist
	}
	for pi, pd := range parts {
		ga.gather(pd, members[pi], out, s.IsSource, pd.G.ReverseBFSFrom, global.Out)
		ga.gather(pd, members[pi], in, s.IsTarget, pd.G.BFSFrom, global.In)
	}
	return global
}

// gatherer builds the labels of step 4 one element at a time. A link
// source's list reaches each of its ancestors once per source, and the
// lists overlap heavily, so duplicates are resolved while accumulating
// — in a dense scratch indexed by global center — and every label is
// then written once, sorted and at exact capacity.
type gatherer struct {
	psg     *PSG
	hops    []hop    // what reaches which element, for one partition
	best    []uint32 // global center → smallest distance seen for the current element, InfDist if none
	touched []int32  // centers with best set
}

// hop says the labels of PSG node `node` reach partition-local element
// elem over an intra-partition path of length dist.
type hop struct {
	elem, node int32
	dist       uint32
}

// gather merges, for every element of pd, the lists of pd's PSG nodes
// that reach it into the element's label. A node with spreads set
// reaches every element bfs finds from it; any other only itself.
func (ga *gatherer) gather(pd *PartitionData, nodes []int32, lists [][]twohop.Entry,
	spreads []bool, bfs func(int32) []uint32, labels [][]twohop.Entry) {

	hops := ga.hops[:0]
	for _, li := range nodes {
		local := pd.Local[ga.psg.Nodes[li]]
		switch {
		case len(lists[li]) == 0:
		case !spreads[li]:
			hops = append(hops, hop{local, li, 0})
		default:
			for elem, d := range bfs(local) {
				if d != graph.InfDist {
					hops = append(hops, hop{int32(elem), li, d})
				}
			}
		}
	}
	slices.SortFunc(hops, func(a, b hop) int { return cmp.Compare(a.elem, b.elem) })
	for i := 0; i < len(hops); {
		elem := hops[i].elem
		gid := pd.Globals[elem]
		touched := ga.touched[:0]
		for ; i < len(hops) && hops[i].elem == elem; i++ {
			for _, e := range lists[hops[i].node] {
				if e.Center == gid {
					continue // self entries stay implicit
				}
				d := hops[i].dist + e.Dist
				if old := ga.best[e.Center]; old == graph.InfDist {
					touched = append(touched, e.Center)
				} else if d >= old {
					continue
				}
				ga.best[e.Center] = d
			}
		}
		if len(touched) > 0 {
			slices.Sort(touched)
			labels[gid] = ga.mergeInto(labels[gid], touched)
		}
		ga.touched = touched
	}
	ga.hops = hops
}

// mergeInto returns label min-merged with the touched centers (both
// ascending) and clears their scratch slots.
func (ga *gatherer) mergeInto(label []twohop.Entry, touched []int32) []twohop.Entry {
	n := len(label) + len(touched)
	for _, e := range label {
		if ga.best[e.Center] != graph.InfDist {
			n--
		}
	}
	merged := make([]twohop.Entry, 0, n)
	i := 0
	for _, center := range touched {
		for i < len(label) && label[i].Center < center {
			merged = append(merged, label[i])
			i++
		}
		d := ga.best[center]
		ga.best[center] = graph.InfDist
		if i < len(label) && label[i].Center == center {
			d = min(d, label[i].Dist)
			i++
		}
		merged = append(merged, twohop.Entry{Center: center, Dist: d})
	}
	return append(merged, label[i:]...)
}

// remap translates local centers to the IDs in nodes.
func remap(entries []twohop.Entry, nodes []int32) []twohop.Entry {
	if len(entries) == 0 {
		return nil
	}
	out := make([]twohop.Entry, len(entries))
	for i, e := range entries {
		out[i] = twohop.Entry{Center: nodes[e.Center], Dist: e.Dist}
	}
	return out
}

// fullPSGCover materializes the PSG closure and builds a real 2-hop
// cover over it — the paper's "recursively apply the algorithm" branch
// with the recursion bottoming out immediately (our PSGs fit in
// memory; see the package comment of ComputeHBar).
func fullPSGCover(s *PSG, opts NewJoinOptions) *twohop.Cover {
	if opts.WithDist {
		dm := psgDistanceMatrix(s)
		cov, _ := twohop.BuildDistanceAware(dm, twohop.Options{Seed: opts.Seed})
		return cov
	}
	cl := graph.NewClosure(s.G)
	cov, _ := twohop.Build(cl, twohop.Options{Seed: opts.Seed})
	return cov
}

func psgDistanceMatrix(s *PSG) *graph.DistanceMatrix {
	n := len(s.Nodes)
	d := make([][]uint32, n)
	for u := int32(0); u < int32(n); u++ {
		d[u] = dijkstra(s, u)
	}
	return &graph.DistanceMatrix{Dist: d}
}

// unionPartitionCovers remaps every partition cover to global IDs — the
// component-wise union L = ∪ Hi that both joins start from. Partitions
// are disjoint and Globals is ascending, so every label is a monotone
// remap of one partition label: already sorted, written once.
func unionPartitionCovers(c *xmlmodel.Collection, parts []*PartitionData, withDist bool) *twohop.Cover {
	global := twohop.NewCover(c.NumAllocatedIDs(), withDist)
	for _, pd := range parts {
		for local, gid := range pd.Globals {
			global.Out[gid] = remap(pd.Cover.Out[local], pd.Globals)
			global.In[gid] = remap(pd.Cover.In[local], pd.Globals)
		}
	}
	return global
}
