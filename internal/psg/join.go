package psg

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// Workers bounds the goroutines that compute H̄ and gather the
	// partitions' labels; 0 means GOMAXPROCS. The cover does not depend
	// on it.
	Workers int
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
// Steps 1 and 4 touch one partition's labels at a time, so they run
// together, one partition per task, on opts.Workers goroutines; step 3
// runs its per-source traversals on the same number.
//
// The result covers exactly the connections of G_E(X) and stores each
// distinct label list once (twohop.Cover.Intern). Partition covers
// must be finished (labels sorted by center), as twohop.Build returns
// them.
func JoinNew(c *xmlmodel.Collection, cross []xmlmodel.Link, partOfID func(int32) int,
	parts []*PartitionData, opts NewJoinOptions) *twohop.Cover {
	global, _ := JoinNewInterned(c, cross, partOfID, parts, opts)
	return global
}

// JoinNewInterned is JoinNew that also returns the number of distinct
// label lists the cover stores.
func JoinNewInterned(c *xmlmodel.Collection, cross []xmlmodel.Link, partOfID func(int32) int,
	parts []*PartitionData, opts NewJoinOptions) (global *twohop.Cover, distinctLists int) {

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := Build(c, cross, partOfID, parts, opts.WithDist)

	// Step 3: labels over the PSG, per PSG node and with PSG-local
	// centers. out[s] is what a link source hands to its partition-level
	// ancestors, in[t] what a link target hands to its descendants. The
	// full-H variant also labels non-sources and non-targets; those
	// lists reach no further than the node itself.
	var out [][]twohop.Entry
	in := make([][]twohop.Entry, len(s.Nodes))
	switch {
	case len(s.Nodes) == 0:
	case opts.FullPSGCover:
		hcov := fullPSGCover(s, opts)
		out = make([][]twohop.Entry, len(s.Nodes))
		for li := range s.Nodes {
			// The explicit self entry lets an ancestor of s receive s
			// itself among the copied centers.
			self := twohop.Entry{Center: int32(li)}
			out[li] = append([]twohop.Entry{self}, hcov.Out[li]...)
			in[li] = append([]twohop.Entry{self}, hcov.In[li]...)
		}
	default:
		out = ComputeHBar(s, opts.WithDist, workers).OutTargets
		// H̄in(t) = {t}: every target is its descendants' Lin center.
		for li := range s.Nodes {
			if s.IsTarget[li] {
				in[li] = []twohop.Entry{{Center: int32(li)}}
			}
		}
	}

	// Steps 1 and 4: the union and the supplementary cover Ĥ, gathered
	// per element.
	members := make([][]int32, len(parts))
	for li, gid := range s.Nodes {
		pi := partOfID(gid)
		members[pi] = append(members[pi], int32(li))
	}
	global = twohop.NewCover(c.NumAllocatedIDs(), opts.WithDist)
	onPool(workers, len(parts), func() func(int) {
		ga := newGatherer(s)
		return func(pi int) {
			pd := parts[pi]
			ga.gather(pd, members[pi], out, s.IsSource, pd.G.Pred, pd.Cover.Out, global.Out)
			ga.gather(pd, members[pi], in, s.IsTarget, pd.G.Succ, pd.Cover.In, global.In)
		}
	})
	global.Recount()
	return global, global.Intern()
}

// onPool runs task(i) for every i in [0, n) on at most workers
// goroutines. Each goroutine makes its task once, from newTask, so it
// can own scratch space, and then pulls indices until none are left.
func onPool(workers, n int, newTask func() func(int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		task := newTask()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				task(i)
			}
		}()
	}
	wg.Wait()
}

// gatherer writes the labels of one partition at a time: the partition
// cover's label, remapped to global IDs, min-merged with the step-4
// lists that reach the element. A link source's list reaches each of
// its ancestors once per source and the lists overlap heavily, so
// duplicates are resolved while accumulating and every label is written
// once, sorted and at exact capacity.
//
// Accumulation works in rank space: the distinct centers the
// partition's lists mention are sorted once and every list is rewritten
// with ranks in place of centers, so one element's centers are bits in
// a bitset of the partition's width, and scanning its set bits yields
// them in ascending global order without a sort.
type gatherer struct {
	psg *PSG
	// rankOf maps a PSG node to its rank among the current partition's
	// centers while the lists are rewritten; -1 otherwise.
	rankOf  []int32
	centers []int32        // rank → global center, ascending
	ranked  []twohop.Entry // the partition's lists with ranks for centers, back to back
	bounds  []int32        // list k of the partition is ranked[bounds[k]:bounds[k+1]]
	seen    []bool         // local elements the current BFS has reached
	hops    []hop          // what reaches which element
	byElem  []hop          // hops grouped by element
	first   []int32        // local element → its first hop in byElem
	marked  []uint64       // ranks the current element receives
	dist    []uint32       // rank → smallest distance the current element receives
	acc     []twohop.Entry // the current element's received centers, ascending
}

func newGatherer(s *PSG) *gatherer {
	ga := &gatherer{psg: s, rankOf: make([]int32, len(s.Nodes))}
	for i := range ga.rankOf {
		ga.rankOf[i] = -1
	}
	return ga
}

// hop says the partition's ranked list number list reaches
// partition-local element elem over an intra-partition path of length
// dist.
type hop struct {
	elem, list int32
	dist       uint32
}

// gather writes into labels the label of every element of pd: its
// partition label part, merged with the lists of pd's PSG nodes that
// reach it. A node with spreads set reaches every element a BFS over
// adj finds from it; any other only itself.
func (ga *gatherer) gather(pd *PartitionData, nodes []int32, lists [][]twohop.Entry,
	spreads []bool, adj func(int32) []int32, part, labels [][]twohop.Entry) {

	ga.rank(nodes, lists)
	n := len(pd.Globals)
	ga.seen = slices.Grow(ga.seen[:0], n)[:n]
	hops := ga.hops[:0]
	for k, li := range nodes {
		if ga.bounds[k] == ga.bounds[k+1] {
			continue
		}
		start := len(hops)
		local := pd.Local[ga.psg.Nodes[li]]
		hops = append(hops, hop{local, int32(k), 0})
		if !spreads[li] {
			continue
		}
		// BFS with the node's own stretch of hops as the queue.
		ga.seen[local] = true
		for i := start; i < len(hops); i++ {
			h := hops[i]
			for _, v := range adj(h.elem) {
				if !ga.seen[v] {
					ga.seen[v] = true
					hops = append(hops, hop{v, h.list, h.dist + 1})
				}
			}
		}
		for _, h := range hops[start:] {
			ga.seen[h.elem] = false
		}
	}
	ga.hops = hops
	ga.groupByElem(n)

	words := (len(ga.centers) + 63) / 64
	ga.marked = slices.Grow(ga.marked[:0], words)[:words]
	ga.dist = slices.Grow(ga.dist[:0], len(ga.centers))[:len(ga.centers)]
	for elem, gid := range pd.Globals {
		labels[gid] = mergeLabel(part[elem], pd.Globals, ga.receive(int32(elem), gid))
	}
}

// receive returns the centers, ascending and with their smallest
// distances, that the hops of local element elem (global ID gid)
// deliver, leaving ga.marked clear.
func (ga *gatherer) receive(elem, gid int32) []twohop.Entry {
	acc := ga.acc[:0]
	received := ga.byElem[ga.first[elem]:ga.first[elem+1]]
	if len(received) == 0 {
		return acc
	}
	for _, h := range received {
		for _, e := range ga.ranked[ga.bounds[h.list]:ga.bounds[h.list+1]] {
			d := h.dist + e.Dist
			w, bit := e.Center>>6, uint64(1)<<(e.Center&63)
			if ga.marked[w]&bit == 0 {
				ga.marked[w] |= bit
				ga.dist[e.Center] = d
			} else if d < ga.dist[e.Center] {
				ga.dist[e.Center] = d
			}
		}
	}
	if self, ok := slices.BinarySearch(ga.centers, gid); ok {
		ga.marked[self>>6] &^= 1 << (self & 63) // self entries stay implicit
	}
	for w, word := range ga.marked {
		for ; word != 0; word &= word - 1 {
			r := w<<6 | bits.TrailingZeros64(word)
			acc = append(acc, twohop.Entry{Center: ga.centers[r], Dist: ga.dist[r]})
		}
		ga.marked[w] = 0
	}
	ga.acc = acc
	return acc
}

// rank collects the distinct centers of the nodes' lists into
// ga.centers, ascending by global ID, and writes every list into
// ga.ranked with ranks for centers.
func (ga *gatherer) rank(nodes []int32, lists [][]twohop.Entry) {
	distinct := ga.centers[:0]
	for _, li := range nodes {
		for _, e := range lists[li] {
			if ga.rankOf[e.Center] < 0 {
				ga.rankOf[e.Center] = 0
				distinct = append(distinct, e.Center)
			}
		}
	}
	gids := ga.psg.Nodes
	slices.SortFunc(distinct, func(a, b int32) int { return cmp.Compare(gids[a], gids[b]) })
	for r, li := range distinct {
		ga.rankOf[li] = int32(r)
	}
	ranked, bounds := ga.ranked[:0], append(ga.bounds[:0], 0)
	for _, li := range nodes {
		for _, e := range lists[li] {
			ranked = append(ranked, twohop.Entry{Center: ga.rankOf[e.Center], Dist: e.Dist})
		}
		bounds = append(bounds, int32(len(ranked)))
	}
	for r, li := range distinct {
		ga.rankOf[li] = -1
		distinct[r] = gids[li]
	}
	ga.centers, ga.ranked, ga.bounds = distinct, ranked, bounds
}

// groupByElem counting-sorts ga.hops by element into ga.byElem, so the
// hops of local element e are byElem[first[e]:first[e+1]].
func (ga *gatherer) groupByElem(n int) {
	first := slices.Grow(ga.first[:0], n+1)[:n+1]
	clear(first)
	for _, h := range ga.hops {
		first[h.elem+1]++
	}
	for e := 1; e <= n; e++ {
		first[e] += first[e-1]
	}
	byElem := slices.Grow(ga.byElem[:0], len(ga.hops))[:len(ga.hops)]
	for _, h := range ga.hops {
		// first[e] is e's next free slot while filling; it ends at the
		// start of e+1, so shift back afterwards.
		byElem[first[h.elem]] = h
		first[h.elem]++
	}
	copy(first[1:], first[:n])
	first[0] = 0
	ga.first, ga.byElem = first, byElem
}

// mergeLabel returns the partition label part (local centers, mapped
// through globals; ascending either way) min-merged with acc (global
// centers, ascending), written once at exact capacity.
func mergeLabel(part []twohop.Entry, globals []int32, acc []twohop.Entry) []twohop.Entry {
	if len(acc) == 0 {
		return remap(part, globals)
	}
	n := len(part) + len(acc)
	for i, j := 0, 0; i < len(part) && j < len(acc); {
		switch c := cmp.Compare(globals[part[i].Center], acc[j].Center); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n--
			i++
			j++
		}
	}
	merged := make([]twohop.Entry, 0, n)
	i := 0
	for _, a := range acc {
		for ; i < len(part) && globals[part[i].Center] < a.Center; i++ {
			merged = append(merged, twohop.Entry{Center: globals[part[i].Center], Dist: part[i].Dist})
		}
		if i < len(part) && globals[part[i].Center] == a.Center {
			a.Dist = min(a.Dist, part[i].Dist)
			i++
		}
		merged = append(merged, a)
	}
	for _, e := range part[i:] {
		merged = append(merged, twohop.Entry{Center: globals[e.Center], Dist: e.Dist})
	}
	return merged
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
		var pq distQueue
		dc := graph.NewDistClosureRows(len(s.Nodes), func(u int32, dist []uint32, reached []int32) []int32 {
			return s.dijkstra(u, dist, reached, &pq)
		})
		cov, _ := twohop.BuildDistanceAware(dc, twohop.Options{Seed: opts.Seed})
		return cov
	}
	cl := graph.NewClosure(s.G)
	cov, _ := twohop.Build(cl, twohop.Options{Seed: opts.Seed})
	return cov
}

// unionPartitionCovers remaps every partition cover to global IDs — the
// component-wise union L = ∪ Hi that the old join starts from (the new
// one writes it partition by partition as it gathers). Partitions are
// disjoint and Globals is ascending, so every label is a monotone remap
// of one partition label: already sorted, written once.
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
